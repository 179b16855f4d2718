"""Published microwave-cavity operating points used by the figure commands."""

from dataclasses import dataclass

from .params import DampingParams, JCParams


@dataclass(frozen=True)
class ExperimentPreset:
    """Named cavity QED operating point.

    Parameters
    ----------
    name : str
        Preset identifier, as accepted by the command line.
    kappa : float
        Cavity field decay rate in s^-1.
    g : float
        Vacuum coupling rate in s^-1.
    nbar : float
        Default mean photon number of the injected field.
    gt_max : float
        Default end of the figure time axis, in units of 1/g.
    """

    name: str
    kappa: float
    g: float
    nbar: float
    gt_max: float

    def jc(self):
        return JCParams(g=self.g)

    def damping(self, n_thermal):
        return DampingParams(kappa=self.kappa, n_thermal=n_thermal)


PRESETS = {
    "benson97": ExperimentPreset(name="benson97", kappa=8.33, g=36000.0,
                                 nbar=49.0, gt_max=50.0),
    "brune96": ExperimentPreset(name="brune96", kappa=2500.0, g=24000.0,
                                nbar=3.3, gt_max=25.0),
}
