import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
# As in run.py: the library's parser and printer recurse per nesting level.
sys.setrecursionlimit(20_000)
