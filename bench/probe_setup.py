"""Set-up probe, run in a fresh process by run.py: times ``import photonprep``
and one warm-up op, and prints them as JSON. Input generation is not timed.

    python3 bench/probe_setup.py <workload> <seed>

Like the ops in run.py, the times are process CPU times, which leave out
hypervisor steal; wall times are printed too.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    import photonprep  # noqa: F401  (the timed import)

    import_s, import_wall_s = time.process_time() - cpu0, time.perf_counter() - wall0

    import numpy as np

    import workloads

    w = workloads.WORKLOADS[workload]
    inputs = w.make_input(np.random.default_rng([seed, 0]))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    w.op(inputs)
    warmup_s, warmup_wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    print(json.dumps({
        "import_s": import_s,
        "warmup_s": warmup_s,
        "import_wall_s": import_wall_s,
        "warmup_wall_s": warmup_wall_s,
        "source": photonprep.__file__,
    }))


if __name__ == "__main__":
    main()
