"""One set-up sample of a workload, taken in a fresh interpreter.

    python3 perfbench/probe.py --workload <name> --seed <n> --work <dir>

Times the import of avflock (with nothing imported before it but what the
interpreter loads at start-up), the construction of the workload's
params/spec and one engine.setup of its first run. The benchmark harness
(workload.py) is imported between the two, untimed, so that its own imports
do not make the program's import look cheaper. Prints {"setup_s": ...}.
"""

from time import perf_counter

t0 = perf_counter()
import os.path  # noqa: E402  (loaded at start-up already)
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
import avflock  # noqa: E402
import avflock.cli  # noqa: E402, F401
import_s = perf_counter() - t0

sys.path.insert(0, BENCH)
import argparse  # noqa: E402
import json  # noqa: E402

import workload  # noqa: E402

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True,
                    help="the workload's output directory; nothing is written")
    args = ap.parse_args()
    workload.import_avflock()  # checks where avflock came from
    wl = workload.WORKLOADS[args.workload](args.seed, workload.Path(args.work))
    t1 = perf_counter()
    _, params, seed = wl.inputs()
    avflock.engine.setup(params, seed)
    print(json.dumps({"setup_s": import_s + perf_counter() - t1}))
