#!/usr/bin/env python3
"""Writes a copy of a campaign checkpoint without its last N cells.

Usage: python3 tools/drop_checkpoint_cells.py CHECKPOINT OUT N

The copy is what a run that stopped N cells short would have left, so
`ftdb_campaign run --checkpoint OUT --resume` must reproduce the full
report byte for byte. N must be positive.
"""
import json
import sys


def main(argv):
    if len(argv) != 4 or not argv[3].isdigit() or int(argv[3]) == 0:
        sys.stderr.write(__doc__)
        return 2
    src, out, n = argv[1], argv[2], int(argv[3])
    with open(src) as f:
        ckpt = json.load(f)
    ckpt['cells'] = ckpt['cells'][:-n]
    with open(out, 'w') as f:
        json.dump(ckpt, f)
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
