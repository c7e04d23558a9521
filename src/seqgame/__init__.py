"""Sequential hypothesis testing against adversarial sample perturbation.

Core pieces: finite-alphabet probability objects (`prob`), constrained
divergence solvers over distortion balls and channels (`divopt`), the
worst-case adversary equilibrium (`equilibrium`), the universal sequential
test with its threshold schedule (`seqtest`), a reproducible Monte Carlo
harness (`simharness`), and a CLI (`cli`).
"""

from .prob import *
from .divopt import *
from .equilibrium import *
from .seqtest import *
from .simharness import *
from .errors import *

__version__ = "0.1.0"

__all__ = ["__version__", *prob.__all__, *divopt.__all__, *equilibrium.__all__,
           *seqtest.__all__, *simharness.__all__, *errors.__all__]
