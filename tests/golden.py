"""Every pinned output: a table of ``splitrate`` command lines (some with the
text of a ``--config`` file), each with its exit code and the SHA-256 of its
``--out`` bytes. Tier-1 runs the ``small`` ones; ``python tests/golden.py`` runs
all, under each pass policy of ``POLICIES``. To re-pin, edit the digests it names.
"""

import contextlib
import hashlib
import json
import math
import tempfile
from collections import namedtuple
from pathlib import Path

from splitrate import acceptance, cli, splitting

Entry = namedtuple("Entry", "name command code sha256 size config", defaults=("small", None))

#: the settings of ``splitting`` under which every entry gives its pinned bytes:
#: the passes over long rows as they are, one step a pass, and fixed passes of 4
#: steps, cut by the budget alone, which were the passes before stops were foreseen
POLICIES = {
    "as is": {},
    "one-step passes": {"PASS_STEPS": 1},
    "fixed 4-step passes": {"PASS_STEPS": 4, "_foreseen": lambda *args: math.inf},
}


def _modes(name: str, command: str, *digests: str, size: str = "small") -> list:
    """One entry per mode, in ``splitting.MODES`` order: ``command --mode <mode>``."""
    return [Entry(f"{name}-{m}", f"{command} --mode {m}", 0, d, size) for m, d in zip(splitting.MODES, digests)]


# the default worst-start sweeps, as the benchmark pins them; the sweep is the
# same at other dims, whose worst coordinates are others
WORST = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())["sweep_worst_sha256"]
# the default zero-start sweeps, the same at every dim
ZERO = (
    "89db0580f2000af1e3cf11af3e24280c8c947537f6450c7b190c349a26d58de2",
    "8eab291629393d07cb8b4e7302cec8cb9ee743e78ea9c98d1632f8ffec22b7ed",
    "8eab291629393d07cb8b4e7302cec8cb9ee743e78ea9c98d1632f8ffec22b7ed",
)
ENTRIES = [
    *_modes("sweep-worst", "sweep --start worst", *WORST.values()),
    *(e for k in (9, 16, 64, 65, 128) for e in _modes(f"sweep-worst-K{k}", f"sweep --start worst --K {k}", *WORST.values())),
    # unit starts reach the engine as coordinates and run as one-column rows, so a
    # dim-1e6 sweep is about as quick as the default
    *_modes("sweep-worst-K1000000", "sweep --start worst --K 1000000", *WORST.values(), size="large"),
    # zero starts are unit starts too, and every row stops at its first step, a fixed point
    *_modes("sweep-zero", "sweep --start zero", *ZERO),
    *_modes("sweep-zero-K1000000", "sweep --start zero --K 1000000", *ZERO, size="large"),
    *_modes("sweep-random-seed7", "sweep --start random --seed 7",
            "da9537c41d639e5ba39ac1fd3f2069404d6f33a969b190afb37e95ffc04252ba",
            "7a9f7b5e815e34a462b06c36f4e0085ac775a4db89502778ee28e3678abb12e4",
            "f2c1bdb2ed7145e52b62fa80b1d575fc37ecd46244f6feee7c5f731a5bd565d9"),
    Entry("sweep-random-seed11", "sweep --alpha linear:0.2:1.4:5 --gamma log:0.05:3:5 --seed 11 --start random", 0,
          "af624bbf093f02bece81edd5ea969c0b0b8da91d471f45bbca8f21460a56737c"),
    # 16 rows of 40,000 elements in blocks of 6, 6 and 4, where rows diverge, run on or stop by tol
    *_modes("sweep-K40000", "sweep --K 40000 --alpha linear:0.1:1.9:4 --gamma log:0.02:6:4 --iters 60",
            "82c758b4aeb08319085d9b6631f7c1ef62a0500d2de543fdc0d13d552ead92f9",
            "47825b9ab0884966af2fcbdc3c834c83a6a0df92d7bea64bc562c421baa71f5b",
            "918f3c0042e11e11ca9d1cb1917c48cb5c6bc6518b35653d54959e5dc26d1b17"),
    *_modes("sweep-K20000", "sweep --K 20000 --alpha linear:0.1:1.9:2 --gamma log:0.02:6:2",
            "c7c3837bce8e16c4088e1c8e0fe87056b9c11ef4e08a2910d3e86960e51e1e46",
            "e3f0a277135f23692a70cbf45b7bf079c8ed8a239936962f406c6600e5b3e5ec",
            "e3f0a277135f23692a70cbf45b7bf079c8ed8a239936962f406c6600e5b3e5ec"),
    *_modes("run", "run",
            "c1cd9912e8bdac458b14deaf83ba3ab7b73d354b4a7f304c7195df70a78295c0",
            "42259764cfe94ae645b285373f472000d770a979861286a1beac510b001ca07c",
            "aa5ff417e95b5c937b843c7bd9af7c6e35ba3eabbe2ed1bcaafd36913d77c97c"),
    *_modes("run-random-seed3", "run --start random --seed 3",
            "5f5a96363b0d80a529a6e8a50797008e63b341fd8028719961575b2d020a263f",
            "276143bdcb8c019f1c85764c3b6bbe1a89c714b15c58ae9413b6c971ee1aed4a",
            "31722d9c227de3ad1e0a718179ca1427329782affc3aece9e31140b29f8a9b0b"),
    *_modes("run-K8", "run --K 8 --start random --seed 1 --iters 30 --tol 1e-300",
            "3c5fc8cafd00dc8919dd39c48a4fcf8f1d2320ea898d6c0c40f8af7f8fcd4e06",
            "99db9f92392e58a8566cd2cf2d116e96c71e78cfb8677696e891a163bab8d0a2",
            "15ecfbd35e60cff9fec662467e58131c80f0ab4e6ced34f286fadb11c7560de4"),
    *_modes("run-K50000", "run --K 50000 --start random --seed 1 --iters 30 --tol 1e-300",
            "8f52370a0c5cd10a807d8f2011e85664d85430391a86400a9341130b6a9c74a3",
            "93601c1d04bdb04d1ad13f642bde9051ce54b0ff7f1115d1cf8d3718e927be09",
            "67d416fe1ee487adaf3717c5b3719452628d007b8269df98c5307baf7e000cb1"),
    *_modes("run-K50000-tol", "run --K 50000 --iters 60 --tol 1e-3",
            "11fff0232870b27a80ad08871453367b1806acb3b796b8bd41fc48c26f36165a",
            "8ecdebcab74639bcb9433e88185cd32aa1b2c6323c50fe81a07b7dc458c9acb4",
            "85cb908c4ef8347401084f517b70f811fb00f5b74619da1c4197d79ecb40c369"),
    Entry("battery", "verify", 0, "3272d6c13f54f03d8adfa806e22611fe1d22e6768f64f98d652652af726be9af"),
    *_modes("run-K1e6", "run --K 1000000 --start random --seed 1 --iters 30 --tol 1e-300",
            "5befe626c50b7d72394e3f9acd821ccdc608fd16544e80df5d850aab040eaf12",
            "d38045642c605c3124433b5afabc11c517a3919899c9de7f998fc651c5b1b61f",
            "3c4d3e6b0657c4ef4b7ea8512d1abc1de65e907e85d1d0858d2c3f9b37998666", size="large"),
    # tol stops primal-dr at step 19 and admm at step 56, inside a pass; dual-dr at 45, a pass's last step
    *_modes("run-K1e6-tol", "run --K 1000000 --start random --seed 1 --iters 60 --tol 1e-2",
            "fb549023dbdcba00c5aa951f211c7995be813609fdf4ba7d0d1e1c358efd1ed2",
            "e2f3161a31a682f0b816b347af76a29d61351c363811e936ef09d16dd1f1c2f0", size="large"),
    Entry("run-K1e6-tol-admm", "run --K 1000000 --start random --seed 1 --iters 60 --tol 1e-3 --mode admm", 0,
          "328b5be725ec15fd5c956000c0cd7bc8ed620b13164aba492a6106044e718f46", "large"),
    Entry("run-K1e6-half-band-admm", "run --K 1000000 --start random --seed 1 --iters 30 --tol 1e-300 --mode admm", 0,
          "ad06906e5abadc2b7c5d74e13fdde3ce5f2b945ad3563ad2fcecbcbe6b03cd4a", "large",
          "idx_sigma = " + ",".join(map(str, range(500_000)))),
]


def output(entry: Entry) -> tuple:
    """The exit code and the ``--out`` bytes of ``entry``'s command, run in this process."""
    if entry.command == "verify":  # no --out: the repr of the battery's untimed results
        results = [(name, *check()) for name, (check, _) in acceptance.CRITERIA.items()]
        return int(not all(passed for _, passed, _ in results)), repr(results).encode()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(None):  # drops what run prints
        Path(tmp, "config").write_text(entry.config or "")
        config = ("--config", f"{tmp}/config") if entry.config is not None else ()
        code = cli.main([*entry.command.split(), *config, "--out", f"{tmp}/out"])
        return code, Path(tmp, "out").read_bytes()


def mismatch(entry: Entry) -> str | None:
    """``name: expected <sha>, got <sha>`` (and the exit code if it is off), or None if all match."""
    code, data = output(entry)
    got = hashlib.sha256(data).hexdigest()
    if (code, got) != (entry.code, entry.sha256):
        return f"{entry.name}: expected {entry.sha256}, got {got}" + (f", exit {code}" if code != entry.code else "")


if __name__ == "__main__":
    failures = []
    defaults = {name: getattr(splitting, name) for settings in POLICIES.values() for name in settings}
    for policy, settings in POLICIES.items():
        for name, value in {**defaults, **settings}.items():
            setattr(splitting, name, value)
        failures += [f"{line} ({policy})" for line in map(mismatch, ENTRIES) if line]
    print(*failures, f"{len(ENTRIES)} entries x {len(POLICIES)} pass policies: {len(failures)} mismatches", sep="\n")
    raise SystemExit(1 if failures else 0)
