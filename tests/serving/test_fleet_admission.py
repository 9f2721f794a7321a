"""Admission control: the one queue rule the fleet sheds on.

The same class drives the autoscaling simulation in
``benchmarks/fleet_bench.py``, whose committed baseline pins its
decisions under load.
"""

import pytest

from repro.serving import AdmissionController, AdmissionRejected
from repro.serving.admission import SHED_FRACTION


class TestQueueThresholds:
    def test_normal_sheds_at_85_percent(self):
        assert SHED_FRACTION == 0.85
        controller = AdmissionController()
        controller.admit(queue_depth=84, queue_capacity=100)
        with pytest.raises(AdmissionRejected, match="85%") as excinfo:
            controller.admit(queue_depth=85, queue_capacity=100)
        assert excinfo.value.status == 429

    def test_shed_counters_are_exact(self):
        controller = AdmissionController()
        controller.admit(queue_depth=0, queue_capacity=100)
        for _ in range(3):
            with pytest.raises(AdmissionRejected):
                controller.admit(queue_depth=90, queue_capacity=100)
        assert controller.stats() == {"admitted": 1, "shed": 3}
