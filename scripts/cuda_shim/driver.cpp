// Runs every registered artifact of a `cuda_dump` directory twice, its
// blocks and threads once in forward and once in reversed order, and
// compares every tensor with the reference interpreter's result: f32
// bit for bit; f16 bit for bit against the reference rounded to f16
// (the reference computes in f32; each f16 store rounds once).
//
// Usage: driver <dump-dir>
#include "cuda_shim.h"

#include <stdint.h>
#include <stdio.h>
#include <string.h>

#include <string>

dim3 blockIdx, threadIdx, blockDim, gridDim;
static const char* current = "";

void __trap() {
  fprintf(stderr, "%s: __trap()\n", current);
  abort();
}

std::vector<Case>& cases() {
  static std::vector<Case> all;
  return all;
}

struct Tensor {
  uint32_t elem_bytes;
  std::vector<float> input, expected;
};

static std::vector<Tensor> load(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (!f) {
    perror(path.c_str());
    exit(2);
  }
  auto u32 = [&] {
    uint32_t v = 0;
    if (fread(&v, 4, 1, f) != 1) exit(2);
    return v;
  };
  std::vector<Tensor> out(u32());
  for (Tensor& t : out) {
    t.elem_bytes = u32();
    t.input.resize(u32());
    t.expected.resize(t.input.size());
    size_t n = t.input.size();
    if (fread(t.input.data(), 4, n, f) != n || fread(t.expected.data(), 4, n, f) != n) exit(2);
  }
  fclose(f);
  return out;
}

// Runs one launch and returns the number of cells that differ.
static size_t run(const Case& c, const std::vector<Tensor>& tensors, bool reverse) {
  std::vector<std::vector<float>> f32(tensors.size());
  std::vector<std::vector<__half>> f16(tensors.size());
  std::vector<void*> args;
  for (size_t i = 0; i < tensors.size(); ++i) {
    const Tensor& t = tensors[i];
    if (t.elem_bytes == 2) {
      f16[i].assign(t.input.begin(), t.input.end());
      args.push_back(f16[i].data());
    } else {
      f32[i] = t.input;
      args.push_back(f32[i].data());
    }
  }
  gridDim = c.grid;
  blockDim = c.block;
  unsigned blocks = c.grid.x * c.grid.y * c.grid.z;
  unsigned threads = c.block.x * c.block.y * c.block.z;
  for (unsigned i = 0; i < blocks * threads; ++i) {
    unsigned j = reverse ? blocks * threads - 1 - i : i;
    unsigned b = j / threads, t = j % threads;
    blockIdx = {b % c.grid.x, b / c.grid.x % c.grid.y, b / (c.grid.x * c.grid.y)};
    threadIdx = {t % c.block.x, t / c.block.x % c.block.y, t / (c.block.x * c.block.y)};
    c.run(args.data());
  }
  size_t bad = 0;
  for (size_t i = 0; i < tensors.size(); ++i) {
    const Tensor& t = tensors[i];
    for (size_t k = 0; k < t.expected.size(); ++k) {
      bool same;
      if (t.elem_bytes == 2) {
        __half want = (__half)t.expected[k];
        same = memcmp(&f16[i][k], &want, sizeof want) == 0;
      } else {
        same = memcmp(&f32[i][k], &t.expected[k], sizeof(float)) == 0;
      }
      if (!same && bad++ == 0) {
        float got = t.elem_bytes == 2 ? (float)f16[i][k] : f32[i][k];
        fprintf(stderr, "%s (%s order): tensor %zu differs at %zu: got %g, want %g\n", c.name,
                reverse ? "reversed" : "forward", i, k, got, t.expected[k]);
      }
    }
  }
  return bad;
}

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: driver <dump-dir>\n");
    return 2;
  }
  size_t failed = 0;
  for (const Case& c : cases()) {
    current = c.name;
    std::vector<Tensor> tensors = load(std::string(argv[1]) + "/" + c.data);
    failed += (run(c, tensors, false) != 0) + (run(c, tensors, true) != 0);
  }
  printf("%zu artifacts, 2 thread orders each: %zu runs failed\n", cases().size(), failed);
  return failed == 0 ? 0 : 1;
}
