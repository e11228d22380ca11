"""Time ``import effectorder`` plus parsing a workload's set-up documents
in a fresh process, then time the calibration kernel in the same process.
Reads {"src": dir, "docs": [text, ...]} on stdin and prints
{"setup_s": seconds, "cal_ms": [ms, ...]} as its last line."""

import json
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import effectorder

    objects = [effectorder.load_document(text) for text in job["docs"]]
    elapsed = time.perf_counter() - t0
    import calibrate  # after timing: it needs numpy, which effectorder loaded

    cal_ms = [calibrate.kernel_ms() for _ in range(5)]
    print(json.dumps({"setup_s": elapsed, "objects": len(objects), "cal_ms": cal_ms}))


if __name__ == "__main__":
    main()
