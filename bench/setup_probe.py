"""Set-up time of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py COMMAND CONFIG_JSON

Times `import gdakit` plus building the config's problem, plan(s) and
per-seed init(s) through gdakit.harness.config (for the WGAN problem that
includes its quadrature grid), and prints the elapsed seconds. gdakit must
be importable, e.g. through PYTHONPATH=src.
"""
import json
import sys
import time


def main(argv: list[str]) -> None:
    command, cfg = argv[0], json.loads(argv[1])
    t0 = time.perf_counter()
    from gdakit.harness import config as hc

    problem = hc.build_problem(cfg["problem"])
    if command == "cmd_run":
        hc.build_optimizer(cfg["optimizer"])
        hc.build_plan(cfg["plan"], problem.constants)
    elif command == "cmd_compare":
        for entry in cfg["series"]:
            hc.build_optimizer(entry["optimizer"])
            hc.build_plan(entry.get("plan", cfg.get("plan")), problem.constants)
    if command != "cmd_check":
        for seed in hc.parse_seeds(cfg, None):
            hc.build_init(cfg.get("init"), problem, seed)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
