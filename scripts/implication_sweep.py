#!/usr/bin/env python3
"""Randomized implication sweep over exact-rational joint laws.

Samples joints of (W, Z), tallies how often each dependence condition holds,
and verifies on every sample that the implication chain

    classic anchor condition  =>  lower-tail condition  =>  W+Z <=ssd W

never breaks, that the upper-tail condition implies stop-loss dominance of
X+Z over X (nonnegative-W samples), and counts how often dominance holds
without the lower-tail condition (non-necessity exhibits).  Any violation
aborts with a counterexample joint.
"""

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # the generators live with the tests

from stochorder import (
    check_ssd,
    cond_classic,
    cond_icx,
    cond_new,
    joint_marginal_w,
    joint_sum,
    joint_to_json,
    stop_loss_compare,
)
from tests.gen import random_joint

DEFAULT_SEED = 20260818
DEFAULT_COUNT = 2000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED})")
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT,
                        help=f"number of joints per sweep (default {DEFAULT_COUNT})")
    args = parser.parse_args()
    print(f"seed {args.seed}, {args.count} joints per sweep")
    rng = random.Random(args.seed)

    tallies = {"classic": 0, "new": 0, "ssd": 0, "exhibits": 0}
    for _ in range(args.count):
        j = random_joint(rng)
        classic = cond_classic(j).holds
        new = cond_new(j).holds
        ssd = check_ssd(joint_marginal_w(j), joint_sum(j)).holds
        if classic and not new:
            sys.exit(f"implication broken (classic without lower-tail):\n"
                     f"{joint_to_json(j)}")
        if new and not ssd:
            sys.exit(f"implication broken (lower-tail without dominance):\n"
                     f"{joint_to_json(j)}")
        tallies["classic"] += classic
        tallies["new"] += new
        tallies["ssd"] += ssd
        tallies["exhibits"] += ssd and not new

    upper_holds = dominated = 0
    for _ in range(args.count):
        j = random_joint(rng, nonneg_w=True)
        if not cond_icx(j).holds:
            continue
        upper_holds += 1
        cmp = stop_loss_compare(j)
        if not cmp.dominates:
            sys.exit(f"implication broken (upper-tail without stop-loss "
                     f"dominance):\n{joint_to_json(j)}")
        dominated += 1

    print(f"lower-tail sweep: classic {tallies['classic']}, "
          f"lower-tail {tallies['new']}, dominance {tallies['ssd']}, "
          f"dominance-without-condition exhibits {tallies['exhibits']}")
    print(f"upper-tail sweep: condition held on {upper_holds}, "
          f"stop-loss dominance verified on all {dominated}")
    print("all implications held")


if __name__ == "__main__":
    main()
