#!/usr/bin/env python3
"""Print one sha256 of `diagnostics.csv` per config of a fixed list.

`diagnostics.csv` is deterministic for a given config and seed, so two trees
that should compute the same numbers print the same digests, and a
byte-identity check of a change is one `diff`:

    PYTHONPATH=old/src python3 scripts/diag_digest.py > old.txt
    PYTHONPATH=src python3 scripts/diag_digest.py > new.txt
    diff old.txt new.txt

A change that is meant to move the numbers only at roundoff cannot show
that through a digest.  `--keep DIR` also keeps each config's
`diagnostics.csv` as DIR/<config>.csv, and `--against DIR` prints, per
config, the largest relative change of every column against such a kept set
(|new - old| / max(|new|, |old|), 0 where both are 0):

    PYTHONPATH=old/src python3 scripts/diag_digest.py --keep kept
    PYTHONPATH=src python3 scripts/diag_digest.py --against kept

A change that moves numbers at roundoff must still adapt the same meshes,
so `--against` exits 1 when any config's `cells` or `dofs` differ from the
kept set at any step, naming the config and the first such step.

When a change renames or removes config keys, run each tree's own copy of
this script (`python3 old/scripts/diag_digest.py` with `PYTHONPATH=old/src`),
so each side spells the same runs in the keys it knows; the config names
stay, and the diff still lines them up.

The list covers every scenario, so every preset's boundary data (the
manufactured and single_vortex presets at their own settings), both BDF
orders, both stabilization settings, adaptive and frozen meshes, lagged and
fresh-factor solves, and the benchmark's two workloads (rect_fingering and
block_budget).
"""

import argparse
import hashlib
import os
import shutil
import sys
import tempfile

import numpy as np

from egflow.driver import make_config, run

CONFIGS = [
    ("rect_fingering", "hele_shaw_rect", dict(ratio=100.0, t_end=1.0, seed=3)),
    ("rect_fingering_seed0", "hele_shaw_rect", dict(ratio=100.0, t_end=1.0, seed=0)),
    ("block_budget", "perm_block", dict(r_max=4, cell_max=2500, t_end=0.3)),
    ("block", "perm_block", dict(t_end=0.3)),
    ("block_nostab", "perm_block", dict(t_end=0.3, lambda_lin=0.0)),
    ("block_nostab_lambda0", "perm_block",
     dict(t_end=0.3, lambda_lin=0.0, lambda_ent=0.0)),
    ("random_perm", "random_perm_2d", dict(t_end=0.3, seed=3)),
    ("radial", "hele_shaw_radial", dict(t_end=0.003)),
    ("vortex_amr", "single_vortex", dict(t_end=0.5, r_max=2)),
    ("rect_long", "hele_shaw_rect",
     dict(ratio=100.0, t_end=3.0, seed=1, r_max=3, cell_max=3000)),
    ("rect_bdf1", "hele_shaw_rect", dict(ratio=100.0, t_end=0.3, bdf_order=1)),
    ("block_frozen", "perm_block", dict(t_end=0.3, r_max=0)),
    ("manufactured", "manufactured", dict()),
    ("vortex", "single_vortex", dict()),
]


def digest(name, scenario, overrides, keep=None):
    """sha256 of the diagnostics.csv that a run of the config writes, and the
    file's text; the file is copied to keep/<name>.csv if keep is given."""
    with tempfile.TemporaryDirectory() as out:
        run(make_config(scenario, **overrides), outdir=out)
        path = os.path.join(out, "diagnostics.csv")
        if keep is not None:
            shutil.copyfile(path, os.path.join(keep, f"{name}.csv"))
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest(), data.decode()


def _table(text):
    header, *rows = text.splitlines()
    return header.split(","), np.array([[float(v) for v in r.split(",")] for r in rows])


def relative_change(text, kept):
    """Largest relative change per column of one diagnostics.csv text against
    a kept one, as "column=value" fields; a different header or row count
    is reported instead."""
    cols, new = _table(text)
    old_cols, old = _table(kept)
    if cols != old_cols or new.shape != old.shape:
        return f"shape {new.shape} against {old.shape}"
    top = np.maximum(np.abs(new), np.abs(old))
    rel = np.abs(new - old) / np.where(top > 0.0, top, 1.0)
    return " ".join(f"{c}={v:.3g}" for c, v in zip(cols, rel.max(axis=0)))


def first_count_change(text, kept):
    """The first step at which `cells` or `dofs` of one diagnostics.csv text
    differ from a kept one, or None; a step that only one of them has
    differs."""
    counts = []
    for cols, rows in (_table(text), _table(kept)):
        at = [cols.index(c) for c in ("step", "cells", "dofs")]
        counts.append({int(r[at[0]]): tuple(r[at[1:]]) for r in rows})
    moved = [s for s in sorted(counts[0].keys() | counts[1].keys())
             if counts[0].get(s) != counts[1].get(s)]
    return moved[0] if moved else None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--short", action="store_true",
                    help="cut every config to two steps")
    ap.add_argument("--keep", metavar="DIR",
                    help="also keep each config's diagnostics.csv in DIR")
    ap.add_argument("--against", metavar="DIR",
                    help="print each config's largest relative change per column "
                         "against the diagnostics.csv kept in DIR")
    args = ap.parse_args()
    if args.keep is not None:
        os.makedirs(args.keep, exist_ok=True)

    moved = []
    for name, scenario, overrides in CONFIGS:
        if args.short:
            dt = make_config(scenario, **overrides).dt
            overrides = dict(overrides, t_end=2.0 * dt)
        sha, text = digest(name, scenario, overrides, args.keep)
        line = f"{name:<22} {sha}"
        if args.against is not None:
            with open(os.path.join(args.against, f"{name}.csv"), encoding="utf-8") as fh:
                kept = fh.read()
            line += " " + relative_change(text, kept)
            step = first_count_change(text, kept)
            if step is not None:
                moved.append(f"{name}: cells or dofs differ from step {step}")
        print(line, flush=True)
    for msg in moved:
        print(msg, file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
