// model_report.cpp — diagnostic: accuracies of the zoo models on all three
// image roles (train / test / attack pool). Used to verify the synthetic
// datasets land in the paper's accuracy regimes (≈99.5% digits, ≈79.5%
// objects) before running the experiment sweeps.
//
// Usage: model_report [digits|objects|both]
#include <cstdio>
#include <cstring>

#include "models/model_zoo.h"
#include "optim/trainer.h"

namespace {

void report(const fsa::models::ModelZoo& zoo, fsa::models::ZooModel& m) {
  using fsa::optim::Trainer;
  // A cached model comes without its train set; rebuild it for the report.
  const fsa::data::Dataset train = zoo.train_set(m.name);
  std::printf("%s: train %.4f  test %.4f  pool %.4f  (n=%lld/%lld/%lld)\n", m.name.c_str(),
              Trainer::accuracy(m.net, train), Trainer::accuracy(m.net, m.test),
              Trainer::accuracy(m.net, m.attack_pool), static_cast<long long>(train.size()),
              static_cast<long long>(m.test.size()), static_cast<long long>(m.attack_pool.size()));
}

}  // namespace

int main(int argc, char** argv) {
  const char* which = argc > 1 ? argv[1] : "both";
  fsa::models::ModelZoo zoo;
  const bool both = std::strcmp(which, "both") == 0;
  if (both || std::strcmp(which, "digits") == 0) report(zoo, zoo.digits());
  if (both || std::strcmp(which, "objects") == 0) report(zoo, zoo.objects());
  return 0;
}
