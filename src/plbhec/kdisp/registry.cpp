#include "plbhec/kdisp/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "plbhec/common/contracts.hpp"

namespace plbhec::kdisp {

// Anchor symbols defined in the variant TUs. A static-library linker only
// extracts an object file somebody references; the registrar objects in
// kernels_{scalar,avx2,avx512}.cpp reference nothing and would be silently
// dropped, leaving an empty table. Calling these no-ops from instance()
// forces extraction without resorting to --whole-archive.
void link_scalar_kernels();
void link_avx2_kernels();
void link_avx512_kernels();

}  // namespace plbhec::kdisp

namespace plbhec::exec::detail {
void link_gemm_kernels();  // exec/gemm_micro.cpp, same extraction story
}

namespace plbhec::kdisp {

const char* to_string(WidthClass width) {
  switch (width) {
    case WidthClass::kNarrow: return "narrow";
    case WidthClass::kWide: return "wide";
  }
  return "unknown";
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry registry;
  link_scalar_kernels();
  link_avx2_kernels();
  link_avx512_kernels();
  exec::detail::link_gemm_kernels();
  return registry;
}

void KernelRegistry::register_kernel(std::string_view kernel, IsaClass isa,
                                     WidthClass width, KernelFn fn,
                                     std::string_view variant_name) {
  PLBHEC_EXPECTS(fn != nullptr);
  PLBHEC_EXPECTS(!kernel.empty());
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_) {
    if (entry.kernel == kernel && entry.isa == isa && entry.width == width) {
      std::fprintf(stderr,
                   "kdisp: duplicate registration for (%.*s, %s, %s)\n",
                   static_cast<int>(kernel.size()), kernel.data(),
                   to_string(isa), to_string(width));
      std::abort();
    }
  }
  entries_.push_back(Entry{std::string(kernel), isa, width, fn, variant_name});
}

std::optional<Selection> KernelRegistry::lookup(std::string_view kernel,
                                                WidthClass width,
                                                IsaClass ceiling) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Entry* best = nullptr;
  for (const Entry& entry : entries_) {
    if (entry.kernel != kernel || entry.width != width) continue;
    if (entry.isa > ceiling) continue;
    if (best == nullptr || entry.isa > best->isa) best = &entry;
  }
  if (best == nullptr) return std::nullopt;
  const Selection selection{best->fn, best->isa, best->variant_name};
  // Memoize the decision for counters/obs. Re-resolve (rather than serve
  // the memo) so a changed test ceiling takes effect; the memo only backs
  // the audit trail.
  for (Slot& slot : slots_) {
    if (slot.kernel == kernel && slot.width == width) {
      slot.selection = selection;
      ++slot.lookups;
      return selection;
    }
  }
  slots_.push_back(Slot{std::string(kernel), width, selection, 1});
  return selection;
}

std::size_t KernelRegistry::variant_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<DispatchRecord> KernelRegistry::resolved() const {
  std::vector<DispatchRecord> records;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    records.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      records.push_back(DispatchRecord{slot.kernel, slot.width,
                                       slot.selection.isa,
                                       slot.selection.variant_name,
                                       slot.lookups});
    }
  }
  std::sort(records.begin(), records.end(),
            [](const DispatchRecord& a, const DispatchRecord& b) {
              if (a.kernel != b.kernel) return a.kernel < b.kernel;
              return a.width < b.width;
            });
  return records;
}

void KernelRegistry::missing_kernel(std::string_view kernel) {
  std::fprintf(stderr, "kdisp: no variant registered for kernel '%.*s'\n",
               static_cast<int>(kernel.size()), kernel.data());
  std::abort();
}

}  // namespace plbhec::kdisp
