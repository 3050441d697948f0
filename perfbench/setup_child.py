"""Set-up probe: a fresh interpreter that loads one workload's inputs.

Reads the generated inputs as JSON on stdin, imports ratcat through the
workload module and turns the inputs into GridParams / parse_path objects,
exactly as run.py does before its first timed call, then prints the
monotonic clock.  run.py subtracts the reading it took just before it
started this interpreter, which gives the set-up time a user pays.

Usage: python3 perfbench/setup_child.py SRC_DIR WORKLOAD < inputs.json
"""

import json
import sys
import time


def main() -> None:
    src, name = sys.argv[1:3]
    inputs = json.load(sys.stdin)
    sys.path.insert(0, src)
    from workloads import WORKLOADS
    WORKLOADS[name].load(inputs)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
