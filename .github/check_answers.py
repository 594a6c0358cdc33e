"""Check the answers of a benchmark run from the last line of its output.

perfbench/run.py exits 0 even when an answer is wrong, so CI pipes its
output here:

    python3 perfbench/run.py ... | tee /dev/stderr | tail -n 1 | python3 .github/check_answers.py [--cert-floors [WORKLOAD]]

Exits 1 unless every answer is correct and no job failed.  With
--cert-floors it also holds each workload's check.cert_frac to its seed-0
floor: an uncertified cell is not a wrong one, but a model built too small
drops the fraction.  A ``--workload all`` line carries every workload; the
line of a single-workload run carries one, named after --cert-floors.
"""
import json
import sys

CERT_FLOORS = {"completion_qq": 1, "completion_unreduced": 17328 / 19344,
               "holim_towers": 1, "ext_gfp": 1}

r = json.loads(sys.stdin.read())
print({k: r[k] for k in ("correct", "attempted", "failed")})
low = []
args = sys.argv[1:]
if "--cert-floors" in args:
    named = args[args.index("--cert-floors") + 1:]
    lines = ({named[0]: r} if named
             else {w: r["workloads"][w] for w in CERT_FLOORS})
    cert = {w: line["metrics"]["check.cert_frac"]["value"]
            for w, line in lines.items()}
    print("cert_frac", cert)
    low = [w for w in cert if cert[w] < CERT_FLOORS[w]]
sys.exit(0 if r["correct"] is True and r["failed"] == 0 and not low else 1)
