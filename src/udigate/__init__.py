"""Container image gateway and job-launch pipeline for batch clusters.

The package covers the full path a containerized job takes: an image is
pulled from a registry, flattened to a single rootfs tree, adjusted for
the site, written out as a verifiable archive, and mounted on every
compute node before the first rank starts.  A virtual-clock simulator,
fault-injection scenarios, and a startup benchmark ride on the same code.
"""

__version__ = "0.1.0"
