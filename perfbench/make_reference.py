"""Record reference.json: the mathematical content of every output the
benchmark can ask for (see checks.py).

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right, and only
when a change is meant to alter what the program computes; the
benchmark's correctness checks compare against this file.  It takes a
few minutes: one census, every big_lift candidate tag, and every
cli_mix request under two hash seeds.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads as wl


def main() -> int:
    env = run.child_env("0")
    (op,) = run.run_worker(["census"], env)
    if op["error"] is not None:
        raise SystemExit(f"census raised: {op['error']}")
    census = sorted(checks.census_row_content(r) for r in op["rows"])
    print(f"census: {len(census)} rows", flush=True)

    lift = {}
    tags = [f"cr:q={wl.LIFT_Q}:d={d}:s=1" for d in wl.CR_DS]
    tags += [f"tcr:q={wl.LIFT_Q}:d={d}:s=2" for d in wl.TCR_DS]
    for tag in tags:
        ops = run.run_worker(["lift", tag], env)
        bad = [o["verb"] for o in ops if o["rc"] != 0]
        if bad:
            raise SystemExit(f"{tag}: {bad} failed")
        lift[tag] = {o["verb"]: o["content"] for o in ops}
        print(f"{tag}: {lift[tag]['construct']}", flush=True)

    cli = {}
    other = run.child_env("1234567")
    for slot in wl.POOL:
        for request in slot:
            seen = []
            for e in (env, other):
                _, _, rc, stdout, stderr = run.cli_request(request, e)
                if rc != 0 and not run.clean_refusal(stdout, stderr):
                    raise SystemExit(f"{request}: exit {rc} without a clean refusal:\n{stderr}")
                body = checks.content(request[0], request[1], stdout) if rc == 0 else None
                seen.append((rc, body))
            if seen[0] != seen[1]:
                raise SystemExit(f"{request}: output depends on PYTHONHASHSEED")
            rc, body = seen[0]
            cli[wl.request_key(request)] = {"rc": rc, "content": body}
            print(f"{wl.request_key(request)}: rc={rc}", flush=True)

    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"census": census, "lift": lift, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
