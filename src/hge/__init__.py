"""Two-hand tracking stream engine.

Parses per-hand tracker CSV streams, extracts washing-gesture features,
detects initiation and completion of the palm-to-palm rub stage with a
finite-state machine, generates labeled synthetic streams for testing,
and exports feature datasets for classifier training.
"""

from .config import DEFAULT_CONFIG
from .errors import (
    EngineError,
    GrabOutOfRange,
    HeaderMismatch,
    InsufficientWindow,
    InvalidScript,
    MalformedRow,
    NonMonotonicTimestamp,
    NonUnitNormal,
    OutOfOrderFrame,
    TooFewSamples,
    UnknownPhase,
)
from .features import (
    STAGE2_SIGNATURE,
    STAGE3_SIGNATURE,
    FeatureVector,
    FingerSpread,
    PalmOrientation,
    PalmShape,
    TrajectoryKind,
    classify_palm_shape,
    classify_trajectory,
    estimate_frequency,
    extract_feature_vector,
    finger_spread,
    inter_palm_distance,
    match_signature,
    palm_opposition,
)
from .frame_model import (
    CSV_HEADER,
    Frame,
    FrameStream,
    HandObservation,
    Handedness,
    HandRecords,
    merge_hand_streams,
    parse_csv_stream,
    parse_hand_csv,
    write_csv_stream,
)
from .mlprep import build_dataset, rows_to_csv
from .stage_detector import (
    AlertKind,
    Phase,
    Stage2Detector,
    Verdict,
    detect_stage2,
    events_to_text,
)
from .synth import (
    OcclusionModel,
    PhaseKind,
    PrimitiveKind,
    drop_frames,
    generate,
    make_ablation_stream,
    make_canonical_script,
    make_stage3_script,
    parse_script_text,
)

__version__ = "0.1.0"
