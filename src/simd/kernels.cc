#include "simd/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace nwc::simd {

namespace scalar_impl {

// The scalar kernels are the differential oracle: they are written in
// terms of the same inline geometry primitives (Rect::Contains, Distance,
// SquaredMinDist) the query algorithms called directly before the kernel
// layer existed, and this translation unit is compiled with
// -ffp-contract=off, so their results are the historical results.

size_t CountInWindow(const double* xs, const double* ys, size_t count, const Rect& window) {
  size_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    if (window.Contains(Point{xs[i], ys[i]})) ++hits;
  }
  return hits;
}

size_t CollectInWindow(const double* xs, const double* ys, size_t count, const Rect& window,
                       uint32_t* out_indices) {
  size_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    if (window.Contains(Point{xs[i], ys[i]})) out_indices[hits++] = static_cast<uint32_t>(i);
  }
  return hits;
}

void BatchDistance(const Point& q, const double* xs, const double* ys, size_t count,
                   double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Distance(q, Point{xs[i], ys[i]});
  }
}

void BatchDistancePoints(const Point& q, const DataObject* objects, size_t count, double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Distance(q, objects[i].pos);
  }
}

void BatchMinDist(const Point& q, const Rect* first, size_t stride_bytes, size_t count,
                  double* out) {
  const char* base = reinterpret_cast<const char*>(first);
  for (size_t i = 0; i < count; ++i) {
    const Rect* rect = reinterpret_cast<const Rect*>(base + i * stride_bytes);
    out[i] = MinDist(q, *rect);
  }
}

}  // namespace scalar_impl

const KernelOps& ScalarOps() {
  static constexpr KernelOps kOps = {
      &scalar_impl::CountInWindow,  &scalar_impl::CollectInWindow,
      &scalar_impl::BatchDistance,  &scalar_impl::BatchDistancePoints,
      &scalar_impl::BatchMinDist,   "scalar",
  };
  return kOps;
}

#if defined(NWC_HAVE_AVX2_KERNELS)
namespace avx2_impl {
// Defined in kernels_avx2.cc (compiled with -mavx2).
extern const KernelOps kOps;
bool CpuSupportsAvx2();
}  // namespace avx2_impl
#endif

const KernelOps* Avx2OpsOrNull() {
#if defined(NWC_HAVE_AVX2_KERNELS)
  if (avx2_impl::CpuSupportsAvx2()) return &avx2_impl::kOps;
#endif
  return nullptr;
}

bool Avx2Supported() { return Avx2OpsOrNull() != nullptr; }

namespace {

// True when NWC_DISABLE_AVX2 is set to anything but "" or "0"; read once.
bool DisabledByEnv() {
  static const bool disabled = [] {
    const char* value = std::getenv("NWC_DISABLE_AVX2");
    return value != nullptr && value[0] != '\0' && std::strcmp(value, "0") != 0;
  }();
  return disabled;
}

const KernelOps& AutoOps() {
  const KernelOps* avx2 = Avx2OpsOrNull();
  return avx2 != nullptr && !DisabledByEnv() ? *avx2 : ScalarOps();
}

const detail::Dispatch& DispatchFor(DispatchMode mode) {
  static const detail::Dispatch kScalar{DispatchMode::kForceScalar, &ScalarOps()};
  static const detail::Dispatch kAuto{DispatchMode::kAuto, &AutoOps()};
  return mode == DispatchMode::kForceScalar ? kScalar : kAuto;
}

}  // namespace

namespace detail {

std::atomic<const Dispatch*> g_dispatch{nullptr};

const KernelOps& ResolveOps() {
  // Nothing installed yet means no SetDispatchMode() call: the mode is
  // kAuto. A SetDispatchMode() racing with first use wins; a failed
  // exchange hands back the dispatch it installed.
  const Dispatch* installed = nullptr;
  const Dispatch* resolved = &DispatchFor(DispatchMode::kAuto);
  if (!g_dispatch.compare_exchange_strong(installed, resolved, std::memory_order_acq_rel)) {
    return *installed->ops;
  }
  return *resolved->ops;
}

}  // namespace detail

void SetDispatchMode(DispatchMode mode) {
  detail::g_dispatch.store(&DispatchFor(mode), std::memory_order_release);
}

DispatchMode GetDispatchMode() {
  const detail::Dispatch* dispatch = detail::g_dispatch.load(std::memory_order_acquire);
  return dispatch != nullptr ? dispatch->mode : DispatchMode::kAuto;
}

const char* ActiveKernelName() { return Ops().name; }

}  // namespace nwc::simd
