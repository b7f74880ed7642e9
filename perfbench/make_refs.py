"""Regenerates refs.json: unit 0 of every workload at the default and the held-out seed.

Every trial of those units is checked against the oracle before it is
written, so the references do not depend on fflab's elimination engine.
The full record digests are kept for information only.
Usage, from the root of a checkout: PYTHONPATH=src python3 perfbench/make_refs.py
"""
import json

from fflab import theory

import measure
import oracle
import workloads

# Stated in fflab's README to four digits; the table must reproduce them.
PHI_WITHOUT = 0.1151
FULL_RANK_WITHOUT = 0.2574


def main() -> None:
    table = theory.build_table("without")
    if abs(table.phi - PHI_WITHOUT) > 5e-5 or abs(table.corank[0] - FULL_RANK_WITHOUT) > 5e-5:
        raise SystemExit("theory table disagrees with the published constants")
    refs: dict = {"theory": {"phi": table.phi, "corank0": table.corank[0]}, "units": {}}
    for name, scales in workloads.PARAMS.items():
        for scale, p in scales.items():
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                key = f"{name}/{scale}/{seed}"
                unit = measure.RUNNERS[name](p, seed, p["trials"])
                if name == "gf3_audit":
                    hits = sum(oracle.gf3_model1_corank(seed, i, p["n"]) == 1
                               for i in range(p["trials"]))
                    if hits != round(unit.fields["fraction"] * p["trials"]):
                        raise SystemExit(f"{key}: fflab disagrees with the oracle")
                    refs["units"][key] = {"result": unit.fields}
                elif unit.fields != [oracle.gf2_fields(seed, i, p["n"]) for i in range(p["trials"])]:
                    raise SystemExit(f"{key}: fflab disagrees with the oracle")
                else:
                    refs["units"][key] = {
                        "digest": measure.digest(unit.fields),
                        "full_digest": unit.full_digest,
                        "trial_digests": [measure.trial_digest(f) for f in unit.fields],
                        "verdict": unit.verdict,
                    }
                if unit.verdict is not None:
                    refs["theory"]["verdict_keys"] = sorted(unit.verdict)
                print(key, "ok", flush=True)
    with open(measure.REFS, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=0)
        f.write("\n")


if __name__ == "__main__":
    main()
