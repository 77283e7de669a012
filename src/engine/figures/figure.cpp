#include "engine/figures/figure.h"

#include <optional>
#include <ostream>

namespace wild5g::engine::figures {

void banner(std::ostream& out, const std::string& id,
            const std::string& title) {
  out << "\n################################################################\n"
      << "# " << id << ": " << title << "\n"
      << "################################################################\n";
}

void paper_note(std::ostream& out, const std::string& text) {
  out << "[paper] " << text << "\n";
}

void measured_note(std::ostream& out, const std::string& text) {
  out << "[repro] " << text << "\n";
}

void FigureRun::report(const Table& table) const {
  table.print(out);
  doc.record(table);
}

namespace {

class FigureCampaign final : public Campaign {
 public:
  FigureCampaign(const CampaignRequest& request, FigureBody body,
                 std::size_t steps)
      : body_(body), steps_(steps), seed_(request.seed) {
    reject_unknown_params(request.params, {});
    if (request.fault_plan.has_value()) {
      injector_.emplace(*request.fault_plan, request.seed);
    }
  }

  [[nodiscard]] std::size_t total_steps() const override { return steps_; }

  [[nodiscard]] json::Value execute_step(std::size_t index,
                                         CampaignContext& ctx) override {
    std::ostream sink(nullptr);  // a null buffer discards every write
    FigureRun run{index,
                  steps_,
                  seed_,
                  injector_.has_value() ? &*injector_ : nullptr,
                  ctx.doc,
                  ctx.console != nullptr ? *ctx.console : sink};
    body_(run);
    return json::Value::object();
  }

 private:
  FigureBody body_;
  std::size_t steps_;
  std::uint64_t seed_;
  std::optional<faults::Injector> injector_;
};

}  // namespace

std::unique_ptr<Campaign> make_figure(const CampaignRequest& request,
                                      FigureBody body, std::size_t steps) {
  return std::make_unique<FigureCampaign>(request, body, steps);
}

}  // namespace wild5g::engine::figures
