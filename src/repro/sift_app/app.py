"""The SIFT detector as a three-state QM application.

Mirrors the paper's app structure exactly:

* **PeaksDataCheck** -- fetches the next ECG/ABP snippet (with its
  pre-stored peak indexes) from memory, sanity-checks the peak data and
  shows the snippet on the LED screen;
* **FeatureExtraction** -- runs the version-specific device feature
  extraction through the restricted math environment;
* **MLClassifier** -- evaluates the deployed per-user model; a positive
  label generates an alert on the LED screen (plus a haptic buzz).

Only PeaksDataCheck is identical across versions; FeatureExtraction and
MLClassifier differ per build, which is reflected in the per-version code
inventories and data declarations the firmware toolchain consumes.
"""

from __future__ import annotations

import numpy as np

from repro.amulet.firmware import ArrayDeclaration
from repro.amulet.qm import Event, QMApp, State, StateMachine
from repro.core.versions import DetectorVersion
from repro.sift_app.device_features import device_extract_features
from repro.sift_app.models import DeployedModel
from repro.sift_app.payload import DeviceWindow

__all__ = ["SIFTDetectorApp"]

#: Estimated code bytes per routine, per build -- the static-analysis
#: numbers the Amulet Resource Profiler would extract from the compiled
#: image.  PeaksDataCheck and the state-machine glue are shared; the
#: feature-extraction and classifier routines differ per version.
_CODE_INVENTORY: dict[DetectorVersion, dict[str, int]] = {
    DetectorVersion.ORIGINAL: {
        "peaks_data_check": 340,
        "normalize_full": 190,
        "histogram": 210,
        "spatial_filling_index": 180,
        "column_stats_std": 230,  # includes the sqrt call site
        "trapezoid_auc": 130,
        "peak_angles_atan": 200,
        "peak_distances_sqrt": 220,
        "paired_distance_sqrt": 180,
        "classifier_float": 150,
        "state_glue_display": 270,
    },
    DetectorVersion.SIMPLIFIED: {
        "peaks_data_check": 340,
        "normalize_full": 190,
        "histogram": 210,
        "spatial_filling_index": 180,
        "column_stats_var": 150,
        "composite_auc": 90,
        "peak_slopes": 110,
        "peak_sq_distances": 100,
        "paired_sq_distance": 90,
        "classifier_fixed_point": 120,
        "state_glue_display": 270,
    },
    DetectorVersion.REDUCED: {
        "peaks_data_check": 340,
        "minmax_peak_normalize": 150,
        "peak_slopes": 110,
        "peak_sq_distances": 100,
        "paired_sq_distance": 90,
        "classifier_fixed_point": 120,
        "state_glue_display": 270,
    },
}

#: Peak-index buffers: up to 16 R + 16 systolic int16 indexes per window.
_PEAK_BUFFER_BYTES = 2 * 16 * 2
#: Stack + scalar locals of the deepest handler (measured on device
#: builds: the matrix builds additionally keep the float[50] column
#: average array, see ``sram_peak_bytes``).
_LOCALS_BYTES = 59
_REDUCED_LOCALS_BYTES = 69


class SIFTDetectorApp(QMApp):
    """One build of the SIFT detector, installable on the simulated Amulet.

    Parameters
    ----------
    version:
        Which build this app is.
    model:
        The deployed per-user classifier
        (:class:`~repro.sift_app.models.FloatLinearModel` for Original,
        :class:`~repro.sift_app.models.FixedPointDeployedModel`
        otherwise).
    grid_n:
        Occupancy-grid side length (paper: 50).
    show_snippets:
        Whether PeaksDataCheck writes each snippet summary to the display
        (the paper's app does; disable for pure compute profiling).
    """

    def __init__(
        self,
        version: DetectorVersion,
        model: DeployedModel,
        grid_n: int = 50,
        show_snippets: bool = True,
        live_peak_detection: bool = False,
        name: str | None = None,
    ) -> None:
        if version.n_features != model.n_features:
            raise ValueError(
                f"{version.value} build extracts {version.n_features} features "
                f"but the model expects {model.n_features}"
            )
        self.version = version
        self.model = model
        self.grid_n = int(grid_n)
        self.show_snippets = bool(show_snippets)
        #: When set, PeaksDataCheck re-derives peak indexes on device
        #: instead of trusting pre-stored ones (the paper's "simple
        #: extension to perform these tasks at run-time").
        self.live_peak_detection = bool(live_peak_detection)
        #: Device verdicts, appended per processed window.
        self.predictions: list[bool] = []
        self.decision_values: list[float] = []
        self.windows_processed = 0
        self.rejected_windows = 0
        self._window: DeviceWindow | None = None
        self._features: np.ndarray | None = None

        peaks_check = State("PeaksDataCheck").on("SENSOR_DATA", _on_sensor_data)
        feature_extraction = State("FeatureExtraction", on_entry=_extract)
        ml_classifier = State("MLClassifier", on_entry=_classify)
        machine = StateMachine(
            [peaks_check, feature_extraction, ml_classifier],
            initial="PeaksDataCheck",
        )
        super().__init__(name or f"sift-{version.value}", machine)

    # ------------------------------------------------------------------
    # Resource declarations (consumed by the toolchain and ARP)
    # ------------------------------------------------------------------

    def code_inventory(self) -> dict[str, int]:
        inventory = dict(_CODE_INVENTORY[self.version])
        if self.live_peak_detection:
            inventory["live_peak_detection"] = 420
        return inventory

    def static_data_bytes(self) -> dict[str, int]:
        data = {
            "peak_index_buffers": _PEAK_BUFFER_BYTES,
            "feature_buffer": 4 * self.version.n_features,
            "model_weights": self.model.data_bytes,
        }
        if self.version.uses_matrix_features:
            # Flat uint8 occupancy matrix (the platform has no 2-D arrays).
            data["occupancy_matrix"] = self.grid_n * self.grid_n
        return data

    def array_declarations(self) -> list[ArrayDeclaration]:
        """Array attributes for the toolchain's static checks."""
        arrays = [
            ArrayDeclaration("r_peak_idx", element_bytes=2, length=16),
            ArrayDeclaration("systolic_peak_idx", element_bytes=2, length=16),
            ArrayDeclaration(
                "feature_buffer", element_bytes=4, length=self.version.n_features
            ),
        ]
        if self.version.uses_matrix_features:
            arrays.append(
                ArrayDeclaration(
                    "occupancy_matrix",
                    element_bytes=1,
                    length=self.grid_n * self.grid_n,
                )
            )
        return arrays

    def sram_peak_bytes(self) -> int:
        if self.version.uses_matrix_features:
            # float[grid_n] column-average scratch plus handler locals.
            return 4 * self.grid_n + _LOCALS_BYTES
        return _REDUCED_LOCALS_BYTES

    def uses_libm(self) -> bool:
        return self.version.requires_libm

    def required_services(self) -> set[str]:
        """System services this build links against."""
        services = {"float_arithmetic", "string_float", "signal_arrays"}
        if self.version.uses_matrix_features:
            services.add("grid_dsp")
        return services


# ----------------------------------------------------------------------
# State handlers (module-level functions, as QM event handlers are in C)
# ----------------------------------------------------------------------


def _on_sensor_data(app: SIFTDetectorApp, event: Event) -> str | None:
    """PeaksDataCheck: fetch the snippet, validate peaks, display it."""
    window = app.services.fetch_window()
    if window is None:
        return None
    if not isinstance(window, DeviceWindow):
        raise TypeError(f"expected a DeviceWindow payload, got {type(window)!r}")
    if app.live_peak_detection:
        from repro.sift_app.device_peaks import with_live_peaks

        window = with_live_peaks(app.services.math, window)
    # Peak sanity check: indexes in range and strictly increasing.  A
    # snippet with corrupt peak metadata is dropped, not classified.
    for peaks in (window.r_peaks, window.systolic_peaks):
        app.services.math.counter.charge("int_op", 2 * max(len(peaks), 1))
        if peaks.size and (
            peaks.min() < 0
            or peaks.max() >= window.n_samples
            or np.any(np.diff(peaks) <= 0)
        ):
            app.rejected_windows += 1
            return None
    app._window = window
    if app.show_snippets:
        ecg_text = app.services.float_to_string(float(window.ecg[0]), 2)
        abp_text = app.services.float_to_string(float(window.abp[0]), 1)
        app.services.display_write(0, f"ECG {ecg_text} ABP {abp_text}")
    return "FeatureExtraction"


def _extract(app: SIFTDetectorApp) -> str:
    """FeatureExtraction entry action: run the device extractor."""
    assert app._window is not None, "FeatureExtraction entered without a window"
    app._features = device_extract_features(
        app.services.math, app.version, app._window, grid_n=app.grid_n
    )
    return "MLClassifier"


def _classify(app: SIFTDetectorApp) -> str:
    """MLClassifier entry action: evaluate the model, alert if positive."""
    assert app._features is not None, "MLClassifier entered without features"
    altered, value = app.model.classify(app.services.math, app._features)
    app.predictions.append(altered)
    app.decision_values.append(value)
    app.windows_processed += 1
    if altered:
        app.services.alert("ECG ALTERED")
    app._window = None
    app._features = None
    return "PeaksDataCheck"
