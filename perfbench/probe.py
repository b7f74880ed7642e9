"""Set-up probe: imports fflab and finishes one trial of a workload.

run.py times this interpreter from start to exit as one sample of setup_s.
Usage: python3 perfbench/probe.py WORKLOAD SCALE
"""
import sys

from fflab import ModelConfig, harness

import workloads


def main() -> None:
    name, scale = sys.argv[1:3]
    p = workloads.PARAMS[name][scale]
    if name == "gf3_audit":
        harness.special_case_audits(["gf3model1"], n=p["n"], trials=1,
                                    master_seed=workloads.DEFAULT_SEED)
    else:
        harness.run_trial(ModelConfig(n=p["n"], master_seed=workloads.DEFAULT_SEED), 0)


if __name__ == "__main__":
    main()
