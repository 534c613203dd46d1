#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs are the
reference (later commits are checked against it):

    python3 perfbench/record_references.py                 # both workloads
    python3 perfbench/record_references.py mc_two_way      # just one

For every input seed this records the rejection counts and failures of the
mc_two_way experiment, and beta_hat and std_errors of the fit_csv_large CLI
fit. Workloads not named keep their entries in perfbench/references.json.
"""

import json
import shutil
import sys

import run

RECORDED = ("mc_two_way", "fit_csv_large")


def record_mc(tw, seed: int) -> dict:
    cfg = run.acceptance_config(tw, seed, 50, 50, run.MC_REPS)
    return run.rejection_counts(tw.montecarlo.rejection_experiment(cfg, n_jobs=1))


def record_fit(tw, seed: int, csv_path) -> dict:
    big = run.acceptance_config(tw, seed, run.FIT_G, run.FIT_H, 1)
    tw.panel.write_csv(tw.montecarlo.generate_dgp(big, 0), csv_path)
    rc, text = run.run_cli_fit(tw, csv_path)
    if rc != 0:
        raise SystemExit(f"error: reference fit for seed {seed} exited with {rc}")
    doc = json.loads(text)
    return {
        "beta_hat": doc["beta_hat"],
        "std_errors": {k: doc["methods"][k]["std_errors"] for k in run.METHODS},
    }


def main(argv: list[str]) -> int:
    workloads = argv or list(RECORDED)
    unknown = set(workloads) - set(RECORDED)
    if unknown:
        raise SystemExit(f"error: no references for {sorted(unknown)}; choose from {RECORDED}")
    tw = run.Program()
    refs = run.load_references() if run.REFERENCES.is_file() else {}
    tmp = run.OUT_DIR / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads:
            refs[name] = {}
            for seed in range(run.N_INPUT_SEEDS):
                refs[name][str(seed)] = (record_mc(tw, seed) if name == "mc_two_way"
                                         else record_fit(tw, seed, tmp / "panel.csv"))
                print(f"{name} seed {seed} recorded", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
