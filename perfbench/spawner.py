"""Starts the ``cli`` workload's children from a small process.

On Linux a child's peak RSS counts the memory of the process that started
it, up to its exec.  A child started straight from the workload process,
which holds numpy and the benchmark, would report that process's size.
This helper loads only the standard library, so the peak RSS of its
children is their own.

Protocol: one JSON request per line on stdin, with keys ``argv``,
``stdin``, ``env``, ``cwd`` and ``timeout``; one JSON reply per line on
stdout, with the child's ``code``, ``out`` and ``err`` and ``maxrss_kb``,
the largest peak RSS of all children so far.  A child that times out is
killed and gets code None.  The helper exits at the end of its stdin.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        req = json.loads(line)
        try:
            p = subprocess.run(req["argv"], input=req["stdin"], capture_output=True, text=True,
                               env=req["env"], cwd=req["cwd"], timeout=req["timeout"])
            reply = {"code": p.returncode, "out": p.stdout, "err": p.stderr}
        except subprocess.TimeoutExpired:
            reply = {"code": None, "out": "", "err": "timed out"}
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
