"""slowlight: deterministic photonic cluster-state generation in a
slow-light waveguide, as a desk-scale simulator and analysis toolkit.

The submodules follow the experiment's layers: waveguide band structure
(`waveguide`), parametric flux control (`fluxcontrol`), single-excitation
dynamics (`dynamics`), protocol compilation (`protocol`), noise modelling
(`noise`), synthetic heterodyne records and their moments (`shots`), and
moment-based tomography (`tomography`), with shared qubit algebra in `qops`.

Import the layer submodules directly, e.g. `from slowlight import noise` or
`from slowlight.shots import estimate_moments`.  This package module
re-exports nothing, so importing one layer loads only that layer and what it
depends on.
"""

__version__ = "0.1.0"
