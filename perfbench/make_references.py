"""Write references.json: the expected output of every workload input.

    python3 perfbench/make_references.py > perfbench/references.json

The references were generated once, from the commit that added this
benchmark, and every job is checked against them.  Regenerating them
hides any change in output, so do it only for a change that is meant
to alter the output, and say so where the change is described.
"""

import hashlib
import json

import job


def main() -> None:
    job.import_plethykit()
    from plethykit import cli

    refs = {"squares": len(job.square_params())}
    for workload, seeds in (("search", len(job.TWIST_BOUNDS)), ("oracle", len(job.ORACLE_BOUNDS))):
        for seed in range(seeds):
            argv = job.make_inputs(workload, seed)
            code, stdout = job.run_cli(argv, cli, job.plain_call)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {code}")
            refs[" ".join(argv)] = {
                "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                "stdout_lines": stdout.count("\n"),
                "stdout_tail": stdout.splitlines()[-1][-80:],
            }
    print(json.dumps(refs, indent=2))


if __name__ == "__main__":
    main()
