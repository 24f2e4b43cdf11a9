"""Shared builders for test fixtures."""

from asadeval.model import ActorObservation, BoundingBox, VideoRecord

# Two comfortably disjoint boxes used all over the fixtures.
LEFT = (0.1, 0.1, 0.3, 0.3)
RIGHT = (0.6, 0.6, 0.8, 0.8)


def obs(video_id, keyframe, actor_id, box_coords, actions=(1,), score=1.0):
    return ActorObservation(
        video_id=video_id,
        keyframe=keyframe,
        box=BoundingBox(*box_coords),
        actor_id=actor_id,
        actions=frozenset(actions),
        score=score,
    )


def record(video_id, observations):
    return VideoRecord(video_id=video_id, observations=tuple(observations))


def track_obs(video_id, actor_id, keyframes, box_coords, actions=(1,), score=1.0):
    """The same box repeated across a range of keyframes."""
    return [obs(video_id, kf, actor_id, box_coords, actions, score) for kf in keyframes]
