"""Part-hierarchy point embeddings.

Mine part trees and tags from scene-graph files, train a point embedding
network with tree-aware triplets and tag supervision, and benchmark few-shot
segmentation transfer against scratch and reconstruction baselines.
"""

__version__ = "0.1.0"

from .benchmark import BenchmarkSpec, MetricsTable, miou, run_benchmark
from .errors import ConfigurationError, InputError, ParseError, PartembedError
from .geometry import (IcpResult, PointCloud, RigidTransform, TriangleMesh,
                       icp_align, normalize_cloud, read_ply, sample_surface,
                       write_ply)
from .hierarchy import PartHierarchy
from .ingest import (DatasetSplit, MineReport, ShapeRecord, TagVocabulary,
                     extract_tags, filter_shape, label_points_with_tags,
                     load_corpus, mine_directory, parse_json_shape,
                     shape_from_collada, split_dataset, tag_sufficiency)
from .network import (PenConfig, forward_embed, init_params, load_checkpoint,
                      save_checkpoint, triplet_loss_and_grad)
from .synth import generate_corpus, generate_shape
from .training import (TrainConfig, TrainShape, finetune_segmentation,
                       finetune_tags, prepare_shapes, predict_segmentation,
                       pretrain_autoencoder, pretrain_metric)
from .triplets import build_pair_distribution, sample_triplets

__all__ = [name for name in dir() if not name.startswith("_")]
