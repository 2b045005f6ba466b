"""Every pinned label rebuilds to the same bytes.

The pins in ``labels.json`` were generated before the thread, process
and executor trial backends were removed; matching them proves that no
label byte moved with that deletion, nor with any later change.
"""

from __future__ import annotations

import pytest

from tests.golden.corpus import cases, label_digests, load_pins


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return label_digests(cases())


def test_pins_cover_the_grid():
    assert sorted(load_pins()) == sorted(case["id"] for case in cases())


@pytest.mark.parametrize("case_id", [case["id"] for case in cases()])
def test_label_matches_pin(digests, case_id):
    assert digests[case_id] == load_pins()[case_id]


def test_serial_oracle_matches_vectorized():
    pins = load_pins()
    serial = {k: v for k, v in pins.items() if "-serial-" in k}
    assert serial
    for case_id, digest in serial.items():
        assert pins[case_id.replace("-serial-", "-vectorized-")] == digest
