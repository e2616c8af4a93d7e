import sys
from pathlib import Path

# The self-tests import the program (src/) to check the bench against it.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
