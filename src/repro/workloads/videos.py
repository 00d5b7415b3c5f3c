"""Procedural 360-degree video generators.

Each profile mimics one of the evaluation's reference videos:

* ``timelapse`` — a static camera over a slowly changing, highly detailed
  scene: almost all bits go to the first intra frame of each GOP.
* ``venice``  — moderate detail with several independently moving
  objects: a balanced intra/predicted bit split.
* ``coaster`` — a fast-panning camera: global motion makes predicted
  frames expensive, the worst case for zero-motion residual coding.

Frames are equirectangular: generators produce luma/chroma fields over
``(theta, phi)`` so content wraps correctly through the azimuth seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.video.frame import Frame


@dataclass(frozen=True)
class VideoProfile:
    """Knobs that determine how hard content is to encode."""

    name: str
    detail: float  # amplitude of high-frequency background texture
    texture_scale: float  # spatial frequency multiplier of the texture
    object_count: int  # independently moving foreground blobs
    object_speed: float  # blob angular speed, radians/second
    pan_speed: float  # global camera pan, radians/second
    drift: float  # slow luminance drift per second (timelapse lighting)
    noise: float  # per-frame sensor noise sigma


PROFILES: dict[str, VideoProfile] = {
    "timelapse": VideoProfile(
        name="timelapse",
        detail=55.0,
        texture_scale=2.0,
        object_count=1,
        object_speed=0.05,
        pan_speed=0.0,
        drift=6.0,
        noise=1.0,
    ),
    "venice": VideoProfile(
        name="venice",
        detail=40.0,
        texture_scale=1.4,
        object_count=6,
        object_speed=0.35,
        pan_speed=0.0,
        drift=1.0,
        noise=1.5,
    ),
    "coaster": VideoProfile(
        name="coaster",
        detail=35.0,
        texture_scale=1.0,
        object_count=3,
        object_speed=0.5,
        pan_speed=0.6,
        drift=0.0,
        noise=2.0,
    ),
}


def _texture_field(
    width: int, height: int, scale: float, rng: np.random.Generator, waves: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wave parameters for a wrap-correct background texture.

    Returns per-wave integer azimuth frequencies, polar frequencies, and
    phases; integer azimuth frequencies guarantee continuity across the
    equirectangular seam.
    """
    k_theta = rng.integers(1, max(2, int(6 * scale)) + 1, size=waves)
    k_phi = rng.uniform(0.5, 5.0 * scale, size=waves)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=waves)
    return k_theta.astype(np.float64), k_phi, phases


def synthetic_video(
    profile: VideoProfile | str,
    width: int = 256,
    height: int = 128,
    fps: float = 30.0,
    duration: float = 3.0,
    seed: int = 0,
) -> Iterator[Frame]:
    """Generate ``duration`` seconds of procedural 360 video.

    Deterministic for a given (profile, dimensions, fps, duration, seed).
    """
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
        profile = PROFILES[profile]
    if width <= 0 or height <= 0 or width % 16 or height % 16:
        raise ValueError(
            f"dimensions must be positive multiples of 16, got {width}x{height}"
        )
    rng = np.random.default_rng(seed)
    frame_count = int(round(duration * fps))
    if frame_count < 1:
        raise ValueError(f"duration {duration}s at {fps}fps yields no frames")

    theta = (np.arange(width) + 0.5) * (2.0 * math.pi / width)
    phi = (np.arange(height) + 0.5) * (math.pi / height)
    theta_grid, phi_grid = np.meshgrid(theta, phi)

    k_theta, k_phi, phases = _texture_field(width, height, profile.texture_scale, rng)
    amplitudes = profile.detail * rng.uniform(0.3, 1.0, size=k_theta.size) / k_theta.size * 2.5

    # Foreground blobs: (theta, phi, angular radius, luma amplitude, velocity).
    blob_theta = rng.uniform(0.0, 2.0 * math.pi, profile.object_count)
    blob_phi = rng.uniform(0.3 * math.pi, 0.7 * math.pi, profile.object_count)
    blob_radius = rng.uniform(0.15, 0.4, profile.object_count)
    blob_amp = rng.uniform(40.0, 90.0, profile.object_count) * rng.choice(
        [-1.0, 1.0], profile.object_count
    )
    blob_velocity = rng.uniform(0.5, 1.0, profile.object_count) * profile.object_speed
    blob_direction = rng.choice([-1.0, 1.0], profile.object_count)

    chroma_phase_u = rng.uniform(0, 2 * math.pi)
    chroma_phase_v = rng.uniform(0, 2 * math.pi)

    for index in range(frame_count):
        time = index / fps
        pan = profile.pan_speed * time
        shifted_theta = theta_grid + pan  # camera pan = content shifts in azimuth

        luma = np.full((height, width), 110.0 + profile.drift * time)
        for k_t, k_p, phase, amplitude in zip(k_theta, k_phi, phases, amplitudes):
            luma += amplitude * np.sin(k_t * shifted_theta + phase) * np.cos(
                k_p * phi_grid
            )
        for blob in range(profile.object_count):
            center_theta = blob_theta[blob] + blob_direction[blob] * blob_velocity[blob] * time + pan
            center_phi = blob_phi[blob] + 0.1 * math.sin(
                time * blob_velocity[blob] * 2.0 + blob
            )
            # Angular distance approximation, wrap-aware in theta.
            d_theta = np.angle(np.exp(1j * (theta_grid - center_theta)))
            d_phi = phi_grid - center_phi
            dist_sq = d_theta * d_theta * np.sin(center_phi) ** 2 + d_phi * d_phi
            luma += blob_amp[blob] * np.exp(-dist_sq / (2.0 * blob_radius[blob] ** 2))
        if profile.noise > 0:
            luma += rng.normal(0.0, profile.noise, luma.shape)

        u_plane = 128.0 + 24.0 * np.sin(shifted_theta + chroma_phase_u)
        v_plane = 128.0 + 24.0 * np.cos(phi_grid * 2.0 + chroma_phase_v)
        u_sub = u_plane.reshape(height // 2, 2, width // 2, 2).mean(axis=(1, 3))
        v_sub = v_plane.reshape(height // 2, 2, width // 2, 2).mean(axis=(1, 3))

        to_u8 = lambda plane: np.clip(np.round(plane), 0, 255).astype(np.uint8)
        yield Frame(y=to_u8(luma), u=to_u8(u_sub), v=to_u8(v_sub))


def solid_video(
    width: int = 64, height: int = 32, frames: int = 4, luma: int = 100
) -> list[Frame]:
    """A flat, trivially compressible clip for unit tests."""
    return [Frame.blank(width, height, luma=luma) for _ in range(frames)]


def checkerboard_video(
    width: int = 64,
    height: int = 32,
    frames: int = 4,
    square: int = 8,
    step: int = 2,
) -> list[Frame]:
    """A moving checkerboard: maximal high-frequency content, known motion.

    The pattern shifts ``step`` pixels per frame, so consecutive frames
    differ everywhere — the stress case for residual coding.
    """
    base_x = np.arange(width)
    base_y = np.arange(height)
    result = []
    for index in range(frames):
        x_idx = (base_x + index * step) // square
        pattern = ((x_idx[None, :] + (base_y // square)[:, None]) % 2) * 200 + 28
        result.append(Frame.from_luma(pattern.astype(np.uint8)))
    return result
