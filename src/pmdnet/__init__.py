"""Self-organising network for multi-sensor data.

Nodes on a lattice fire in proportion to posterior probabilities derived
from sigmoid activities over local input windows; training descends an
upper bound on the n-firing reconstruction distortion.  The package also
carries the exactly solvable two-ring model and brute-force oracles for
every derived quantity.
"""
