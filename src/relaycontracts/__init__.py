"""Incentive-compatible contract menus and budgeted relay selection for OFDM links."""

from .contracts import *  # noqa: F403
from .distributions import *  # noqa: F403
from .selection import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"
