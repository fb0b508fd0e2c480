"""The benchmark's workloads: the hgrw CLI arguments of each pipeline stage.

Every workload runs ``synth -> inspect -> train -> rewire -> diag``. Only the
flags listed here differ from the CLI defaults; the seed is passed to
``synth`` and ``train`` separately. The rewire settings are kept as fields
because the output checks compare the plan against them.

``repeats`` runs a short command several times in a row in an untraced
round (each call is one operation, rewriting the same outputs). This host's
speed swings by +-20% over a second, so a short stage gets a few seconds of
calls per round. Its speed also shifts for minutes at a time, which only
more rounds spread over the run can average, so no repeat is added where it
would cost a round: prune6k runs three rounds without repeats, and two
with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple[str, ...]
    train: tuple[str, ...]
    diag: tuple[str, ...]
    epochs: int  # epochs_attr + epochs_label, the loss CSV's row count
    paths: int  # meta-paths the train command enumerates
    edge_budget: int = 6
    epsilon: float = 0.6
    gamma: float = -1.0
    two_hop_only: bool = False
    repeats: dict[str, int] = field(default_factory=dict)

    def rewire_flags(self) -> list[str]:
        flags = ["--two-hop-only"] if self.two_hop_only else []
        if self.gamma != -1.0:
            flags += ["--gamma", repr(self.gamma)]
        return flags

    def calls(self, work: str, seed: int, traced: bool) -> list[list[str]]:
        """Every CLI call of one round in order; traced rounds repeat nothing."""
        return [
            argv
            for argv in self.commands(work, seed)
            for _ in range(1 if traced else self.repeats.get(argv[0], 1))
        ]

    def commands(self, work: str, seed: int) -> list[list[str]]:
        """The five CLI invocations of one pass, writing under ``work``."""
        ds, model, rw = f"{work}/ds", f"{work}/model.msl", f"{work}/rw"
        return [
            ["synth", "--out", ds, *self.synth, "--seed", str(seed)],
            ["inspect", ds],
            ["train", ds, "--out", model, *self.train, "--seed", str(seed)],
            ["rewire", ds, "--model", model, "--out", rw, *self.rewire_flags()],
            ["diag", rw, "--report", f"{work}/diag.json", *self.diag],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan10k",
            why="10k targets, 2 paths: the exhaustive candidate scan and 100k-edge file I/O dominate",
            synth=("--target-nodes", "10000", "--mean-degree", "5"),
            train=("--max-path-len", "1", "--epochs-attr", "20", "--epochs-label", "5"),
            diag=("--max-path-len", "1"),
            epochs=25,
            paths=2,
            repeats={"diag": 3},
        ),
        Workload(
            name="demo500",
            why="README demo: 230 full-window epochs over 6 paths, so gradients and composition dominate",
            synth=("--target-nodes", "500", "--p-self", "0.3", "--p-self", "0.3"),
            train=(),
            diag=(),
            epochs=230,
            paths=6,
            repeats={"rewire": 4},
        ),
        Workload(
            name="prune6k",
            why="aux node type, two-hop masked scan and pruning at gamma 0: removals beside additions",
            synth=(
                "--target-nodes", "6000", "--p-self", "0.3", "--aux-size", "3000",
                "--p-aux", "0.2", "--mean-degree", "4",
            ),
            train=("--max-path-len", "2", "--epochs-attr", "10", "--epochs-label", "2"),
            diag=("--max-path-len", "1"),
            epochs=12,
            paths=3,
            gamma=0.0,
            two_hop_only=True,
        ),
    )
}
