# ctest driver for hydride_bench_smoke: run the bench suite in smoke
# mode, then structurally validate the merged artifact. Two steps in
# one test so the artifact checked is the artifact just produced.
#
# Expects: BENCH_TOOL, BENCH_DIR, PYTHON, CHECKER, OUT.
execute_process(
    COMMAND ${BENCH_TOOL} --smoke --bench-dir ${BENCH_DIR} --json-out ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hydride-bench --smoke failed with status ${rc}")
endif()

execute_process(
    COMMAND ${PYTHON} ${CHECKER} ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_bench.py rejected ${OUT} (status ${rc})")
endif()
