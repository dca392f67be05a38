"""Composable shape association measures for time series.

Build a measure from parts (central estimate -> standardization -> Minkowski
dissimilarity -> association constructor), check it against the axioms it is
supposed to satisfy, and cluster series by absolute association.
"""

from .errors import (
    ConstantSeriesError,
    DatasetError,
    DomainError,
    LengthError,
    ShapeAssocError,
    ShapeError,
    SpecError,
)
from .series import (
    SeriesSet,
    TimeSeries,
    constant_series,
    is_constant,
    load_set,
)
from .estimates import (
    ArithmeticMean,
    GeneralizedMidrange,
    Max,
    Median,
    Midrange,
    Min,
    MinkowskiDeviation,
    OrderStatistic,
    OrderedWeightedMean,
    Projection,
    Range,
    TruncatedMean,
    WeightedMean,
)
from .standardize import (
    Center,
    CenterScale,
    preset,
    standardize,
)
from .measures import (
    ComplementDecay,
    CosineStandardized,
    DissimilaritySpec,
    ExpDecay,
    GeneralizedMidrangeCorrelation,
    MinkowskiBranch,
    MinkowskiContrast,
    Pearson,
    PowerHalf,
    RationalDecay,
    SimilarityBranch,
    SimilarityComplement,
    SimilarityDifference,
    SimilarityRecipe,
    associate,
    association_matrix,
    decay,
    dissimilarity,
    grow,
    similarity,
)
from .axioms import (
    SAM_PROPERTIES,
    AbsSimilarity,
    Probe,
    PropertyId,
    PropertyReport,
    applicable_properties,
    replay,
    verify,
)
from .cluster import (
    Dendrogram,
    MergeStep,
    SimilarityMatrix,
    contains_cluster,
    cut,
    single_linkage,
)
from .bench import (
    BenchmarkMeasure,
    BenchmarkSpec,
    FileDataset,
    SyntheticCluster,
    SyntheticDataset,
    default_grid_measures,
    default_synthetic_spec,
    generate_synthetic,
    run_benchmark,
)
from .datasets import parse_dataset, parse_dataset_text

__version__ = "0.1.0"
