#!/usr/bin/env python3
"""Print one sha256 of `diagnostics.csv` per config of a fixed list.

`diagnostics.csv` is deterministic for a given config and seed, so two trees
that should compute the same numbers print the same digests, and a
byte-identity check of a change is one `diff`:

    PYTHONPATH=old/src python3 scripts/diag_digest.py > old.txt
    PYTHONPATH=src python3 scripts/diag_digest.py > new.txt
    diff old.txt new.txt

The list covers every scenario with a transport, both BDF orders, both
stabilization settings, lagged and fresh-factor solves, and the
benchmark's two workloads (rect_fingering and block_budget).
"""

import argparse
import hashlib
import os
import tempfile

from egflow.driver import make_config, run

CONFIGS = [
    ("rect_fingering", "hele_shaw_rect", dict(ratio=100.0, t_end=1.0, seed=3)),
    ("rect_fingering_seed0", "hele_shaw_rect", dict(ratio=100.0, t_end=1.0, seed=0)),
    ("block_budget", "perm_block", dict(r_max=4, cell_max=2500, t_end=0.3)),
    ("block", "perm_block", dict(t_end=0.3)),
    ("block_nostab", "perm_block", dict(t_end=0.3, stab=False)),
    ("block_nostab_lambda0", "perm_block",
     dict(t_end=0.3, stab=False, lambda_lin=0.0, lambda_ent=0.0)),
    ("random_perm", "random_perm_2d", dict(t_end=0.3, seed=3)),
    ("radial", "hele_shaw_radial", dict(t_end=0.003)),
    ("vortex_amr", "single_vortex", dict(t_end=0.5, r_max=2, amr=True)),
    ("rect_long", "hele_shaw_rect",
     dict(ratio=100.0, t_end=3.0, seed=1, r_max=3, cell_max=3000)),
    ("rect_bdf1", "hele_shaw_rect", dict(ratio=100.0, t_end=0.3, bdf_order=1)),
]


def digest(scenario, overrides):
    """sha256 of the diagnostics.csv that a run of the config writes."""
    with tempfile.TemporaryDirectory() as out:
        run(make_config(scenario, **overrides), outdir=out)
        with open(os.path.join(out, "diagnostics.csv"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--short", action="store_true",
                    help="cut every config to two steps")
    args = ap.parse_args()

    for name, scenario, overrides in CONFIGS:
        if args.short:
            dt = make_config(scenario, **overrides).dt
            overrides = dict(overrides, t_end=2.0 * dt)
        print(f"{name:<22} {digest(scenario, overrides)}", flush=True)


if __name__ == "__main__":
    main()
