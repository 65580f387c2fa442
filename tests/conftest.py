"""Let the subprocesses that tests start import nfasat from this checkout.

pyproject.toml puts src/ on pytest's own sys.path; child processes such as
``python -m nfasat.dimacs_solver`` only see PYTHONPATH, so it gets src/ too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
