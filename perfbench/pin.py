"""Re-pin the reference digests the output checks compare against.

For each pinned seed this executes, ``jobs=1`` inline with no cache,
the cells whose records every run checks — the first two ``sweep``
batches and the first 20 ``service`` campaigns — and writes the
SHA-256 of their canonical record bytes to ``digests.json``.  Run it
only after an intentional change to the program's numbers::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import sys

PINNED_SEEDS = list(range(11))


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from common import digest_of, inline_records
    from inputs import HELD_OUT_SEED, ServiceInputs, Sizes, SweepInputs
    from service import PINNED_CAMPAIGNS
    from sweep import CHECKED_BATCHES

    sizes = Sizes()
    pinned = {"sweep": {}, "service": {}}
    for seed in PINNED_SEEDS + [HELD_OUT_SEED]:
        sweep = SweepInputs(seed, sizes)
        jobs = [job for b in range(CHECKED_BATCHES) for job in sweep.batch(b)]
        pinned["sweep"][str(seed)] = digest_of(inline_records(jobs))
        service = ServiceInputs(seed, sizes)
        jobs = [job for k in range(PINNED_CAMPAIGNS) for job in service.campaign(k)]
        pinned["service"][str(seed)] = digest_of(inline_records(jobs))
        print(f"seed {seed}: pinned", flush=True)
    with open(os.path.join(here, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
