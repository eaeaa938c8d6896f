"""Regenerate perfbench/reference.json from the program in src/.

    python3 perfbench/make_reference.py

The simulation references are error counts per bundle, pool seed and
SNR, from decoder="both" runs (which also assert that the oracle and
structured decoders agree on every trial).  Only regenerate on a commit
whose outputs are trusted; a change that alters these values changes
the program's outputs and is caught by the benchmark's gate.
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import workloads  # noqa: E402

# (pool size, trials per SNR) per simulation workload
POOLS = {"sim-small": (128, 32), "sim-large": (128, 4)}


def main():
    ref = {"sim": {}, "algebra": workloads.algebra_reference()}
    for name, (pool, trials) in POOLS.items():
        ref["sim"].update(workloads.sim_reference(name, pool, trials))
        print("%s: done" % name, file=sys.stderr)
    text = json.dumps(ref, indent=1, sort_keys=True)
    # one line per innermost list of numbers or strings
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()
