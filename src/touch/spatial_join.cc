#include "touch/spatial_join.h"

#include <cmath>

#include "geom/knn.h"

namespace neurodb {
namespace touch {

JoinInput JoinInput::FromElements(const geom::ElementVec& elements) {
  JoinInput in;
  in.boxes.reserve(elements.size());
  in.ids.reserve(elements.size());
  for (const auto& e : elements) {
    in.boxes.push_back(e.bounds);
    in.ids.push_back(e.id);
  }
  return in;
}

JoinInput JoinInput::FromSegments(std::vector<geom::Segment> segments,
                                  std::vector<geom::ElementId> ids) {
  JoinInput in;
  in.boxes.reserve(segments.size());
  for (const auto& s : segments) in.boxes.push_back(s.Bounds());
  in.segments = std::move(segments);
  in.ids = std::move(ids);
  return in;
}

Status JoinInput::Validate() const {
  if (boxes.size() != ids.size()) {
    return Status::InvalidArgument("JoinInput: boxes/ids size mismatch");
  }
  if (!segments.empty() && segments.size() != boxes.size()) {
    return Status::InvalidArgument("JoinInput: segments size mismatch");
  }
  // Every method sorts by box coordinates, and a NaN key breaks std::sort's
  // ordering contract.
  for (const auto& b : boxes) {
    if (b.IsEmpty()) {
      return Status::InvalidArgument("JoinInput: empty bounding box");
    }
    if (!geom::IsFiniteBox(b)) {
      return Status::InvalidArgument("JoinInput: non-finite bounding box");
    }
  }
  for (const auto& s : segments) {
    if (!geom::IsFinitePoint(s.a) || !geom::IsFinitePoint(s.b) ||
        !std::isfinite(s.radius)) {
      return Status::InvalidArgument("JoinInput: non-finite segment");
    }
  }
  return Status::OK();
}

Status JoinOptions::Validate() const {
  // An infinite epsilon would make every pair match.
  if (!(epsilon >= 0.0f) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "JoinOptions: epsilon must be finite and >= 0");
  }
  // The limits of the STR tree TOUCH builds (rtree::RTreeOptions).
  if (touch_fanout < 4) {
    return Status::InvalidArgument("JoinOptions: touch_fanout must be >= 4");
  }
  if (touch_leaf < 2) {
    return Status::InvalidArgument("JoinOptions: touch_leaf must be >= 2");
  }
  return Status::OK();
}

const char* JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kNestedLoop:
      return "NestedLoop";
    case JoinMethod::kPlaneSweep:
      return "PlaneSweep";
    case JoinMethod::kScalableSweep:
      return "ScalableSweep";
    case JoinMethod::kPbsm:
      return "PBSM";
    case JoinMethod::kS3:
      return "S3";
    case JoinMethod::kTouch:
      return "TOUCH";
  }
  return "Unknown";
}

std::vector<JoinMethod> AllJoinMethods() {
  return {JoinMethod::kTouch,      JoinMethod::kPbsm,
          JoinMethod::kS3,         JoinMethod::kPlaneSweep,
          JoinMethod::kScalableSweep, JoinMethod::kNestedLoop};
}

Result<JoinResult> RunJoin(JoinMethod method, const JoinInput& a,
                           const JoinInput& b, const JoinOptions& options) {
  switch (method) {
    case JoinMethod::kNestedLoop:
      return NestedLoopJoin(a, b, options);
    case JoinMethod::kPlaneSweep:
      return PlaneSweepJoin(a, b, options);
    case JoinMethod::kScalableSweep:
      return ScalableSweepJoin(a, b, options);
    case JoinMethod::kPbsm:
      return PbsmJoin(a, b, options);
    case JoinMethod::kS3:
      return S3Join(a, b, options);
    case JoinMethod::kTouch:
      return TouchJoin(a, b, options);
  }
  return Status::InvalidArgument("RunJoin: unknown method");
}

}  // namespace touch
}  // namespace neurodb
