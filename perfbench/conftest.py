"""Put the program sources and the benchmark modules on the import path."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
for _path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
