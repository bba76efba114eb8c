# Test driver for the bench_smoke CTest entries: runs a benchmark
# binary in --json mode and validates the emitted file parses as JSON
# and contains at least one record; when a python3 and the shared
# cross-bench-v1 validator are available, the full schema check runs
# too (the same validator CI applies to every uploaded artifact).
# BUILD_TYPE, when defined, is passed on as the validator's
# --build-type, so its speed-ratio bands apply only to optimised builds.
# Invoked as
#   cmake -DBENCH_BIN=... -DOUT_JSON=... [-DBENCH_ARGS=a;b;c]
#         [-DVALIDATOR=.../validate_bench_json.py] [-DBUILD_TYPE=...]
#         -P RunBenchSmoke.cmake

if(NOT BENCH_BIN OR NOT OUT_JSON)
    message(FATAL_ERROR "RunBenchSmoke.cmake requires BENCH_BIN and OUT_JSON")
endif()

file(REMOVE "${OUT_JSON}")

execute_process(
    COMMAND "${BENCH_BIN}" --json "${OUT_JSON}" ${BENCH_ARGS}
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${BENCH_BIN} exited with ${rv}")
endif()

if(NOT EXISTS "${OUT_JSON}")
    message(FATAL_ERROR "--json did not produce ${OUT_JSON}")
endif()

file(READ "${OUT_JSON}" content)

# string(JSON) fatally errors on malformed JSON, which is the check.
string(JSON bench_name GET "${content}" "bench")
string(JSON record_count LENGTH "${content}" "records")
if(record_count LESS 1)
    message(FATAL_ERROR "no benchmark records in ${OUT_JSON}")
endif()
string(JSON first_ns GET "${content}" "records" 0 "ns_per_op")

message(STATUS "bench '${bench_name}': ${record_count} record(s), "
               "first ns_per_op=${first_ns}")

if(VALIDATOR)
    find_program(PYTHON3_EXE python3)
    if(PYTHON3_EXE)
        set(validator_args "")
        if(DEFINED BUILD_TYPE)
            set(validator_args "--build-type=${BUILD_TYPE}")
        endif()
        execute_process(
            COMMAND "${PYTHON3_EXE}" "${VALIDATOR}" ${validator_args}
                    "${OUT_JSON}"
            RESULT_VARIABLE vrv)
        if(NOT vrv EQUAL 0)
            message(FATAL_ERROR
                    "${OUT_JSON} failed the cross-bench-v1 schema check")
        endif()
    else()
        message(STATUS "python3 not found - skipping schema validation")
    endif()
endif()
