"""Regenerate reference.json: the default-seed ratios, mean relative
standard error and CSV digest of each Monte Carlo workload.

    python3 benchmarks/make_reference.py

Only a change that deliberately alters what the program computes, or a
change of workload sizes, should regenerate it; say so in CHANGES.md.
"""

import json

import run


def main():
    run.load_package()
    import workloads

    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        if not workload.monte_carlo:
            continue
        ctx = workload.setup(workloads.DEFAULT_SEED)
        result = workload.work(ctx, workloads.DEFAULT_SEED)
        out[name] = workloads.reference_entry(workload, result)
        print(name, out[name])
    run.REFERENCE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
