"""Distributed multi-agent search and track.

A discrete-time simulation stack for cooperative target search and tracking
with unicycle agents: information-form estimate fusion in translation-relative
local frames, virtual-pheromone coverage control, two-phase distributed-greedy
target selection, and Monte-Carlo comparisons against Levy-walk, centralized
auction, local-greedy, and anti-flocking baselines.
"""

__version__ = "0.1.0"
