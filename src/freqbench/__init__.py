"""Numerical workbench for frequency-plane bilinear operators.

Submodules:

- ``grid``        periodic sampled functions, exact discrete averaging
- ``geometry``    lacunary polygon, chopping decompositions, partition of unity
- ``bilinear``    frequency-pair multipliers, directional transforms, region symbols
- ``timefreq``    multi-tile families as arrays, halos, trees, forests
- ``sizes``       tile seminorms, tree size functionals, exceptional sets
- ``paraproduct`` dyadic band operators, coupled paraproduct, telescoping
- ``experiments`` reproducible experiment drivers used by the CLI
"""

__version__ = "0.1.0"
