# Adds the benchmark to the repository's own build without editing the
# root CMakeLists.txt. CMake runs this file right after the root
# project() call when configured with
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/benchmark/hook.cmake
#
# The root sets the language standard only after project(), so set it
# here as well: this subdirectory is added before src/.
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)

add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/benchmark)
