"""Helpers shared by the test modules, which import them as ``helpers``.

pytest's default import mode puts this directory on ``sys.path``.
"""

from ndpa.model import ModelParams


def params_for(k2, g=1.0, sign=1):
    """The suite's model: omega_a = 3, omega_b = 2, and k^2 with the sign of k."""
    return ModelParams.from_k2(k2, g=g, omega_a=3.0, omega_b=2.0, sign=sign)
