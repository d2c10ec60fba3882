"""Put the source tree on PYTHONPATH for the subprocesses some tests start.

pytest's `pythonpath` setting only extends this process's sys.path; the CLI
tests run `python -m bitretrieve` in a child process, which reads the
environment instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
