"""The benchmark's workloads: one ``models gen`` set-up and one measured command.

Why each exists is in README.md next to this file. The shift families are
deterministic, so the seed changes only the oracle's sample for them; the
perturbed family draws its matrices from the seed.
"""
from __future__ import annotations

from dataclasses import dataclass

INPUT = "input.json"
OUTPUT = "out.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # which oracle check and item count apply: spectrum, essential or amu
    gen: tuple[str, ...]  # arguments after `models gen`; "{seed}" is filled in
    command: tuple[str, ...]  # the measured subcommand, without --input and -o
    threads: int
    seeded: bool  # whether the seed changes the generated input

    def gen_argv(self, seed: int) -> list[str]:
        return ["models", "gen", *(a.format(seed=seed) for a in self.gen), "-o", INPUT]

    def run_argv(self) -> list[str]:
        return [self.command[0], "--input", INPUT, *self.command[1:],
                "--threads", str(self.threads), "-o", OUTPUT]


WORKLOADS = {w.name: w for w in (
    Workload("essential-shift256", "essential", ("shift", "--dim", "256"),
             ("essential", "--eta", "0.5", "--cuts", "16,32"), 1, False),
    Workload("amu-shift192-t2", "amu", ("shift", "--dim", "192"),
             ("amu", "--lambda", "all-accepted", "--eta", "0.5",
              "--sigma", "0.35", "--eps", "0.35"), 2, False),
    Workload("spectrum-perturbed48", "spectrum",
             ("perturbed", "--dim", "48", "--n", "3", "--seed", "{seed}",
              "--param", "perturbation=0.2"),
             ("spectrum", "--eta", "0.5"), 1, True),
)}


def items(kind: str, artifact: dict) -> int:
    """Work done by one run: grid points scanned, or certificates issued."""
    if kind == "spectrum":
        return int(artifact["meta"]["grid_points"])
    if kind == "essential":
        return sum(int(lvl["spectrum"]["meta"]["grid_points"]) for lvl in artifact["levels"])
    return len(artifact["certificates"])
