"""Golden pins: committed digests of whole simulations.

Each case runs one configuration end to end and compares two hex
digests against values recorded before the Merkle layer was made
incremental:

* ``stable_hash(SimulationResult.to_dict())`` — every simulated number
  (cycles, counters, latencies);
* the final Merkle root over the ORAM tree — the controller's own root
  when integrity is on, and a fresh ``MerkleTree`` over the final tree
  either way, which pins the tree contents slot for slot.

A speed-up must leave both unchanged; a deliberate behaviour change
re-records them and says why.
"""

import pytest

from repro.oram.config import OramConfig
from repro.oram.integrity import MerkleTree
from repro.serialize import stable_hash
from repro.system.config import SystemConfig
from repro.system.simulator import simulate

GOLDEN = {
    # dynamic-3, mcf, L=10, timing protection and Merkle integrity on.
    ("mcf", True): (
        "1ccf9bbfb8e4094e654dfdc2d92607ccad4910a0f80294ebf4dc148a7f6d63fb",
        "0d9b1a7a2ddbb342f95e6bd6b95dbdd350fa40a371a4708ee5c3b09266ef910f",
    ),
    # dynamic-3, h264ref, L=10, plain.
    ("h264ref", False): (
        "ff06fbd824b19c6089428b12d4fae5a478a1043d1ca8b6ee2f445f6d4f1c4635",
        "7da1d99676ced341153414bdd0ecad65b52364c9b3a3eec9756a28cba87cc38b",
    ),
}


@pytest.mark.parametrize(("workload", "secured"), sorted(GOLDEN))
def test_result_and_merkle_root_match_golden(workload, secured):
    config = SystemConfig.dynamic(
        3, oram=OramConfig(levels=10, integrity=secured)
    )
    if secured:
        config = config.with_timing_protection(800.0)
    backends = []

    def keep(backend):
        backends.append(backend)
        return backend

    result = simulate(config, workload, 4000, seed=1, backend_filter=keep)
    controller = backends[0].controller
    result_digest, root = GOLDEN[(workload, secured)]
    assert stable_hash(result.to_dict()) == result_digest
    if secured:
        assert controller.integrity.root.hex() == root
    assert MerkleTree(controller.tree).root.hex() == root
