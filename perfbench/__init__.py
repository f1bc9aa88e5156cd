"""The repository benchmark: paced serving workloads and the Table II cohort.

Run ``python3 perfbench/run.py --list`` for every metric with its unit,
and ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` for one measured run.  The benchmark drives the program
only through its public API; it changes nothing under ``src/``.
"""
