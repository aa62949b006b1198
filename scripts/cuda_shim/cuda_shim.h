// A CUDA shim for running polyject's CUDA artifacts on the host with g++:
// every block and thread of a launch runs in turn, as plain C++. Enough
// of CUDA for what `render_cuda` prints: the index globals, `__global__`,
// the vector types, `__half` as `_Float16`, `__trap`, and the expression
// functions the printer names.
#pragma once
#include <math.h>
#include <stdlib.h>
#include <vector>

struct dim3 {
  unsigned x = 1, y = 1, z = 1;
};
extern dim3 blockIdx, threadIdx, blockDim, gridDim;

#define __global__
typedef _Float16 __half;
struct alignas(8) float2 {
  float x, y;
};
struct alignas(16) float4 {
  float x, y, z, w;
};
struct alignas(8) uint2 {
  unsigned x, y;
};

[[noreturn]] void __trap();
inline float relu(float x) { return fmaxf(x, 0.0f); }
inline float recipf(float x) { return 1.0f / x; }
inline float max(float a, float b) { return fmaxf(a, b); }
inline float min(float a, float b) { return fminf(a, b); }

// A dump buffer passed to a kernel parameter of any pointer type.
struct Arg {
  void* p;
  template <class T>
  operator T*() const { return static_cast<T*>(p); }
};

// One artifact of a dump: its name, its data file, the launch it runs
// under, and a call of the kernel on the dump's buffers.
struct Case {
  const char* name;
  const char* data;
  dim3 grid, block;
  void (*run)(void* const* buffers);
};
std::vector<Case>& cases();
struct Register {
  explicit Register(Case c) { cases().push_back(c); }
};
