"""Run the desk-scale reference pipeline and print every number
configs/reference_desk.json pins: the seed, the source corpus hash, the
stage-loss tails, the paired blocks of criteria 4-6, the data-sweep curve of
criterion 7 and the relative tolerance the acceptance suite compares at.

The numbers come from `meladapt.experiments.reference_record`, the same call
the acceptance suite (tests/test_acceptance.py) checks against the pin. The
whole stack is bitwise deterministic, so these values are exact regression
constants, not statistical estimates. `--pin` writes them into
configs/reference_desk.json and prints every pinned value that changed as
`path: old -> new (rel r)`, the list the re-pin protocol records.

Usage: python3 scripts/run_reference.py [--pin] [--seed N]
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from meladapt.binio import write_text                       # noqa: E402
from meladapt.config import desk_config                     # noqa: E402
from meladapt.experiments import (                         # noqa: E402
    Workbench, pin_changes, reference_record)


def main():
    ap = argparse.ArgumentParser(
        description="Print the desk reference record; --pin writes it.")
    ap.add_argument("--pin", action="store_true",
                    help="write configs/reference_desk.json")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    record = reference_record(Workbench(desk_config(), args.seed))
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.pin:
        target = REPO / "configs" / "reference_desk.json"
        old = json.loads(target.read_text()) if target.exists() else {}
        changes = pin_changes(old, record)
        print(f"{len(changes)} pinned values changed", *changes, sep="\n")
        write_text(target, text + "\n")
        print(f"pinned -> {target}")


if __name__ == "__main__":
    main()
