import os
import sys
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: OpenBLAS reads this when
# numpy is first imported, which no test module has done yet, and it is the
# setting the acceptance criteria's training recipes are measured under.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Make the oracle helpers importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))
