"""``python -m tests.golden --record`` re-records the golden outputs."""

import argparse

from . import FILES, files, record

parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__)
parser.add_argument("--record", action="store_true", required=True,
                    help="overwrite the recorded files and fingerprint with this build's")
parser.parse_args()
record()
print(f"recorded {len(files(FILES))} files under {FILES}")
