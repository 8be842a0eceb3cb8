#!/usr/bin/env python
"""Full turbofan experiment: train across seeds, detect, diagnose, aggregate.

Expects the public turbofan text files (train_FD001.txt / train_FD003.txt)
in --data; falls back to the bundled synthetic surrogate when absent so the
pipeline stays runnable end to end.
"""

import argparse
import sys
from pathlib import Path

from tdcae import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="data", help="directory with train_FD00x.txt")
    parser.add_argument("--subset", default="FD001", choices=cli.SUBSETS)
    parser.add_argument("--out", default="out/cmapss")
    parser.add_argument("--seeds", default="0 1 2 3 4")
    parser.add_argument("--epochs", type=int, default=50)
    args = parser.parse_args()

    subset = args.subset
    if subset != "synthetic" and not (Path(args.data) / f"train_{subset}.txt").is_file():
        print(f"train_{subset}.txt not found under {args.data}; using the synthetic surrogate")
        subset = "synthetic"

    out = Path(args.out) / subset
    data = ["--data", args.data] if subset != "synthetic" else []
    rc = cli.main(["train", "--subset", subset, "--out", str(out),
                   "--seeds", args.seeds, "--epochs", str(args.epochs)] + data)
    if rc != 0:
        return rc

    seeds = cli.parse_seeds(args.seeds)  # train has checked the list
    metrics_files = []
    for seed in seeds:
        seed_out = out / f"seed{seed}"
        rc = cli.main(["detect", "--subset", subset, "--out", str(seed_out),
                       "--checkpoint", str(out / f"checkpoint_seed{seed}.json")] + data)
        if rc != 0:
            return rc
        metrics_files.append(str(seed_out / "metrics.json"))

    rc = cli.main(["diagnose", "--subset", subset, "--out", str(out),
                   "--checkpoint", str(out / f"checkpoint_seed{seeds[0]}.json")]
                  + data)
    if rc != 0:
        return rc

    return cli.main(["report", "--out", str(out)] + metrics_files)


if __name__ == "__main__":
    sys.exit(main())
