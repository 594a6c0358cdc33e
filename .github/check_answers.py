"""Check the answers of a benchmark run from the last line of its output.

perfbench/run.py exits 0 even when an answer is wrong, so CI pipes its
output here:

    python3 perfbench/run.py ... | tail -n 1 | python3 .github/check_answers.py [--cert-floors]

Exits 1 unless every answer is correct and no job failed.  With
--cert-floors it also holds each workload's check.cert_frac to its seed-0
floor: an uncertified cell is not a wrong one, but a model built too small
drops the fraction.
"""
import json
import sys

CERT_FLOORS = {"completion_qq": 1, "completion_unreduced": 17328 / 19344,
               "holim_towers": 1, "ext_gfp": 1}

r = json.loads(sys.stdin.read())
print({k: r[k] for k in ("correct", "attempted", "failed")})
low = []
if "--cert-floors" in sys.argv[1:]:
    cert = {w: r["workloads"][w]["metrics"]["check.cert_frac"]["value"]
            for w in CERT_FLOORS}
    print("cert_frac", cert)
    low = [w for w in CERT_FLOORS if cert[w] < CERT_FLOORS[w]]
sys.exit(0 if r["correct"] is True and r["failed"] == 0 and not low else 1)
