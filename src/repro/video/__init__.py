"""Video substrate: frames, a from-scratch block-transform codec, GOPs, tiles.

The reproduction cannot ship H.264/HEVC, so this package implements the
minimal real codec that exhibits the structural features VisualCloud
exploits:

* a quality ladder in which lower quality means measurably fewer bytes,
* closed groups of pictures (GOPs) that decode independently,
* motion-constrained tiles that decode independently of their neighbours,
  so a window of any tile subset is assembled from stored bytes alone, and
* an MP4-style atom container with GOP and tile indexes.

Every byte produced here round-trips through a real decoder; nothing is a
size model.
"""

from repro.video.blocks import BLOCK_SIZE
from repro.video.codec import PlaneCodec
from repro.video.frame import Frame, mse, psnr
from repro.video.gop import decode_gop, encode_gop
from repro.video.mp4 import Atom, Mp4File
from repro.video.quality import QUALITY_LADDER, Quality
from repro.video.tiles import TiledGop, TiledVideoCodec

__all__ = [
    "Atom",
    "BLOCK_SIZE",
    "Frame",
    "Mp4File",
    "PlaneCodec",
    "QUALITY_LADDER",
    "Quality",
    "TiledGop",
    "TiledVideoCodec",
    "decode_gop",
    "encode_gop",
    "mse",
    "psnr",
]
