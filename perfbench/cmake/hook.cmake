# Included at the end of the repository's project() call (see run.py).
# Target names resolve at generate time, so the cminer_* libraries the
# root CMakeLists.txt defines afterwards are visible to perfbench.
add_subdirectory(${CMAKE_CURRENT_LIST_DIR}/.. perfbench)
