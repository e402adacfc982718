"""Block compressor: partitioning, lossy pipeline, container format.

The scalar stages in :mod:`.pipeline` are the specification; ``compress``
and ``decompress`` get the same results from :mod:`.batch` for every q.
The bit-vector twin in :mod:`.reference` recomputes every stage with the
exact digit-string model so it can be compared with :mod:`.pipeline` bit for bit.
"""

from .blocks import GridShapeError, block_count, partition, unpartition
from .params import (
    CodecParams,
    NegabinaryRangeError,
    ParamError,
    TransformOverflowError,
)
from .pipeline import (
    BlockFP,
    NegaBlock,
    PipelineTrace,
    bitplane_truncate,
    block_fp_forward,
    block_fp_inverse,
    compress_block,
    decompress_block,
    from_negabinary,
    nega_decode,
    nega_encode,
    pipeline_trace,
    sequency_order,
    sequency_permute,
    sequency_unpermute,
    significand_truncate,
    to_negabinary,
    transform_forward,
    transform_inverse,
    value_exponent,
)
from .reference import RefTrace, roundtrip_ref
from .stream import (
    DEFAULT_EXPONENT_BITS,
    ArrayHeader,
    CompressedBlock,
    ContainerError,
    DecodeError,
    bit_planes,
    check_exponent_bits,
    compress,
    decode_planes,
    decompress,
    encode_planes,
    read_header,
)

__all__ = [
    "ArrayHeader",
    "BlockFP",
    "CodecParams",
    "CompressedBlock",
    "ContainerError",
    "DEFAULT_EXPONENT_BITS",
    "DecodeError",
    "GridShapeError",
    "NegaBlock",
    "NegabinaryRangeError",
    "ParamError",
    "PipelineTrace",
    "RefTrace",
    "TransformOverflowError",
    "bit_planes",
    "bitplane_truncate",
    "block_count",
    "block_fp_forward",
    "block_fp_inverse",
    "check_exponent_bits",
    "compress",
    "compress_block",
    "decode_planes",
    "decompress",
    "decompress_block",
    "encode_planes",
    "from_negabinary",
    "nega_decode",
    "nega_encode",
    "partition",
    "pipeline_trace",
    "read_header",
    "roundtrip_ref",
    "sequency_order",
    "sequency_permute",
    "sequency_unpermute",
    "significand_truncate",
    "to_negabinary",
    "transform_forward",
    "transform_inverse",
    "unpartition",
    "value_exponent",
]
