"""Regression: the slowest correct build fits the default step limit.

binary_search under tigress is correct but long-running: it exits 0
with ``496\\n208\\n`` after 73,070,628 emulated steps, where the plain
build takes 77,530.  The harness's former 60M default made
``verify_semantics`` raise ``StepLimitExceeded`` on it.  One run costs
35-50 s on a 2-vCPU VM, so it lives here rather than in tier-1.
"""

from repro.bench import build, verify_semantics
from repro.emulator.cpu import run_image


def test_binary_search_tigress_within_default_step_limit():
    assert verify_semantics("binary_search", "tigress")
    assert run_image(build("binary_search", "none").image) == (0, b"496\n208\n")
